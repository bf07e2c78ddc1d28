GO ?= go
FUZZTIME ?= 30s
# SOAK_RUNS is the single run-budget knob of both soak tiers: empty
# selects the tier defaults (two cross-product passes for `soak`,
# 100000 runs for `soak-deep`). The CI jobs set it explicitly so the
# workflow files and this Makefile always agree.
SOAK_RUNS ?=

.PHONY: all check ci vet build test race race-pool benchcheck bench \
	perfbench-check serve-smoke soak soak-deep staticcheck govulncheck \
	hygiene fuzz-smoke profile clean

all: check

# check is the pre-commit gate: static analysis, a full build, the test
# suite under the race detector, and one iteration of every benchmark
# (so a benchmark body that fails or panics breaks the build even when
# nobody reads timings).
check: vet build race benchcheck

# ci mirrors every GitHub Actions job locally: the check gate plus the
# lint pair, the source hygiene checks, the fuzz smoke, the focused
# pool/shard race pass, the perfbench build check, the serve smoke and
# the PR-tier soak. End-to-end timings are gated by the repository
# benchmark (bash perfbench/run.sh, bounds in BENCHMARK.json), not here.
ci: check staticcheck govulncheck hygiene fuzz-smoke race-pool \
	perfbench-check serve-smoke soak

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-pool is the focused race pass over the concurrency-bearing
# pieces: the worker pool (shared atomic claim cursor, invariance
# across worker counts, skewed load), the distributed campaign's lease
# plane (worker loss, corrupt result), the sharded adaptation-cache
# pool, the serve pipeline's verdict cache (entry bound, concurrent
# hits and evictions) and its admission (single-flight joins,
# shedding, overload). A repeat count varies goroutine interleavings beyond what
# one -race run sees.
race-pool:
	$(GO) test -race -count 2 \
		-run 'ForEachWorker|StealPool|Invariance|WorkersBadEnv|DistributedCampaign|DistCampaign|CacheShards|ContextHash|VerdictCache|SingleFlight|ShedsWhenQueueFull|ServerOverload' \
		./internal/expt/ ./internal/safety/ ./internal/serve/

# benchcheck runs every Benchmark* function in the module once, as the
# CI benchcheck job does: it checks that each benchmark body still runs
# and passes its own assertions, so a moved or new benchmark cannot
# break unnoticed. It measures nothing.
benchcheck:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# perfbench-check vets the repository benchmark (perfbench/, a nested
# module that the root ./... patterns skip) and runs its tests against
# this tree, as the CI perfbench job does: a change that deletes or
# renames a name perfbench imports fails here.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# bench runs every microbenchmark (Benchmark* in the _test.go files) with
# allocation counts: BenchmarkDrawKeyed (internal/gen) reports the
# campaign's per-set draw cost in ns/set beside BenchmarkCampaignFigure
# (internal/expt). End-to-end numbers come from the repository
# benchmark: bash perfbench/run.sh (workloads in BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# serve-smoke drives the serving stack end to end as CI does: build
# ftmc-serve as a real binary, boot it on an ephemeral port, post one
# task set to /v1/verdict twice, assert the canonical-hash cache hit
# (in the second answer and in the snapshots on /metrics and
# /metrics/prom) and a clean drain on SIGTERM. The scenario lives in
# TestCLIServe so local and CI runs are identical.
serve-smoke:
	$(GO) test -race -count 1 -v -run '^TestCLIServe$$' .

# soak is the PR-tier invariant soak exactly as the CI soak-smoke job
# runs it: the full backend × mode × fault × workload cross-product
# under the race detector, with triage records for any violation left
# in soak-triage/. Seconds-scale; SOAK_RUNS overrides the default
# two-pass budget.
soak:
	FTMC_SOAK_RUNS=$(SOAK_RUNS) FTMC_SOAK_TRIAGE=$(CURDIR)/soak-triage \
		$(GO) test -race -count 1 -v -run '^TestSoakSmoke$$' ./internal/harness/

# soak-deep is the nightly tier: the same test as soak, without the race
# detector, at a 10^5-run budget (override with SOAK_RUNS). Minimized
# repro records for any violation land in soak-triage/; the test logs
# the one-line sweep summary with its digest. The 55-minute test timeout
# makes a hang print goroutine stacks before the 60-minute CI job is
# killed.
soak-deep:
	FTMC_SOAK_RUNS=$(or $(SOAK_RUNS),100000) FTMC_SOAK_TRIAGE=$(CURDIR)/soak-triage \
		$(GO) test -count 1 -timeout 55m -v -run '^TestSoakSmoke$$' ./internal/harness/

# staticcheck / govulncheck run the deeper analyzers when installed
# (CI installs them; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`
# and `go install golang.org/x/vuln/cmd/govulncheck@latest`), and skip
# with a note otherwise so `make ci` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# hygiene is the CI hygiene job: the tree must be gofmt-clean, and
# `go mod tidy -diff` fails when go.mod or go.sum would change, without
# touching them. -diff needs Go >= 1.23; an older toolchain skips that
# step with a note, as the staticcheck and govulncheck targets do.
hygiene:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	@if $(GO) help mod tidy | grep -q -- '-diff'; then \
		$(GO) mod tidy -diff; \
	else \
		echo "go mod tidy -diff needs Go >= 1.23; skipping"; \
	fi

# fuzz-smoke runs the corpus-seeded fuzz targets for FUZZTIME each —
# the same smoke CI runs on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSetUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/task
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/timeunit
	$(GO) test -run '^$$' -fuzz '^FuzzVerdictRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDistFrame$$' -fuzztime $(FUZZTIME) ./internal/expt
	$(GO) test -run '^$$' -fuzz '^FuzzKillInterval$$' -fuzztime $(FUZZTIME) ./internal/safety
	$(GO) test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime $(FUZZTIME) ./internal/gen

# profile writes pprof CPU and heap profiles of the full Fig. 3 campaign
# (BenchmarkCampaignFigure: draw, line 2, line 8 and the eq. (5)/(7)
# probes); inspect with `go tool pprof expt.test cpu.prof` /
# `go tool pprof expt.test mem.prof`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkCampaignFigure$$' \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/expt
	@echo "wrote cpu.prof, mem.prof and expt.test"

clean:
	$(GO) clean ./...
