GO ?= go
DATE := $(shell date +%F)
FUZZTIME ?= 30s
# SOAK_RUNS is the single run-budget knob of both soak tiers: empty
# selects the tier defaults (two cross-product passes for `soak`,
# 100000 runs for `soak-deep`). The CI jobs set it explicitly so the
# workflow files and this Makefile always agree.
SOAK_RUNS ?=

.PHONY: all check ci vet build test race race-pool benchcheck bench \
	bench-compare bench-smoke serve-smoke dist-smoke soak soak-deep \
	staticcheck govulncheck fuzz-smoke profile pgo clean

all: check

# check is the pre-commit gate: static analysis, a full build, the test
# suite under the race detector, and one pass over the safety-kernel
# benchmarks (so a kernel regression breaks the build loudly even when
# nobody reads timings).
check: vet build race benchcheck

# ci mirrors the GitHub Actions matrix locally: the check gate plus the
# lint pair, the fuzz smoke, the focused pool/shard race pass and the
# bench smoke with its exit-code convention (regression tolerated,
# harness error fatal).
ci: check staticcheck govulncheck fuzz-smoke race-pool bench-smoke serve-smoke dist-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-pool is the focused race pass over the concurrency-bearing
# pieces: the work-stealing pool (claim/steal CAS protocol, invariance
# across worker counts), the sharded adaptation-cache pool and the serve
# pipeline's admission (single-flight joins, shedding, overload). A
# repeat count varies goroutine interleavings beyond what one -race run
# sees.
race-pool:
	$(GO) test -race -count 2 \
		-run 'ForEachWorker|StealPool|Invariance|WorkersBadEnv|CacheShards|ContextHash|SingleFlight|ShedsWhenQueueFull|ServerOverload' \
		./internal/expt/ ./internal/safety/ ./internal/serve/

benchcheck:
	$(GO) test -run '^$$' -bench='SafetyKillingPFH|DistCampaign|PoolStealSkewed|PoolFixedSkewed' -benchtime=1x ./...

# bench first runs the pooled-engine micro-benchmarks with allocation
# counts (Fig. 3 point, FT-S with/without scratch, one simulator
# hyperperiod), then writes the machine-readable performance report
# BENCH_$(DATE).json (see cmd/ftmc-bench); commit it to extend the
# performance history.
bench:
	$(GO) test -run '^$$' -bench 'Fig3Point|FTSScratch|FTSAllocating|SimulatorHyperperiod' -benchmem ./internal/...
	$(GO) run ./cmd/ftmc-bench -v -out BENCH_$(DATE).json

# bench-compare runs the suite and diffs it against the newest committed
# BENCH_*.json: any benchmark regressing by more than 20% in ns/op or
# allocs/op fails the target (see ftmc-bench -compare).
bench-compare:
	$(GO) run ./cmd/ftmc-bench -out /tmp/ftmc-bench-compare.json \
		-compare $$(ls BENCH_*.json | sort | tail -1)

# bench-smoke is the CI variant of bench-compare: a short-benchtime run
# that exercises the harness, manifest and metrics emission end to end.
# ftmc-bench exits 2 when a benchmark regressed beyond the gate — noise
# at smoke benchtimes, so only other (harness) failures break the
# target. Built binary, not `go run`: go run collapses any nonzero
# program exit to 1 and would erase the 2-vs-1 distinction.
bench-smoke:
	$(GO) build -o /tmp/ftmc-bench-smoke-bin ./cmd/ftmc-bench
	/tmp/ftmc-bench-smoke-bin -benchtime 5ms -metrics -out /tmp/ftmc-bench-smoke.json
	/tmp/ftmc-bench-smoke-bin -benchtime 1ms -out /tmp/ftmc-bench-smoke2.json \
		-compare /tmp/ftmc-bench-smoke.json || test $$? -eq 2

# dist-smoke drives the distributed campaign runner end to end as CI
# does: build ftmc-report and ftmc-worker as real binaries, then (a)
# shard a small Fig. 3 campaign across two worker subprocesses over
# the stdin/stdout lease protocol, (b) run the same campaign over real
# TCP sockets with ftmc-worker -connect on the binary frame protocol,
# and (c) crash the coordinator mid-journal (-dist-crash-after) and
# restart it from its checkpoint — each byte-diffed against the
# single-process run. The scenarios live in TestCLIDistCampaign,
# TestCLIDistCampaignTCP and TestCLIDistCampaignCheckpointRestart so
# local and CI runs are identical; the in-process protocol and
# worker-loss/timeout paths are covered by `make race` (dist_test.go).
dist-smoke:
	$(GO) test -race -count 1 -v -run '^TestCLIDistCampaign' .

# serve-smoke drives the serving stack end to end as CI does: build
# ftmc-serve and ftmc-load as real binaries, boot the server on an
# ephemeral port, run a closed-loop burst against /v1/verdict, assert
# the canonical-hash cache hit (via the expvar snapshot on /metrics)
# and a clean drain on SIGTERM. The scenario lives in
# TestCLIServeAndLoad so local and CI runs are identical.
serve-smoke:
	$(GO) test -race -count 1 -v -run '^TestCLIServeAndLoad$$' .

# soak is the PR-tier invariant soak exactly as the CI soak-smoke job
# runs it: the full backend × mode × fault × workload cross-product
# under the race detector, with triage records for any violation left
# in soak-triage/. Seconds-scale; SOAK_RUNS overrides the default
# two-pass budget.
soak:
	FTMC_SOAK_RUNS=$(SOAK_RUNS) FTMC_SOAK_TRIAGE=$(CURDIR)/soak-triage \
		$(GO) test -race -count 1 -v -run '^TestSoakSmoke$$' ./internal/harness/

# soak-deep is the nightly tier: the same sweep through the built
# ftmc-bench binary at a 10^5-run budget (override with SOAK_RUNS).
# Minimized repro records for any violation land in soak-triage/; the
# JSON sweep summary goes to stdout. Built binary, not `go run`, so the
# exit status reaches make unmangled.
soak-deep:
	$(GO) build -o /tmp/ftmc-bench-soak-bin ./cmd/ftmc-bench
	/tmp/ftmc-bench-soak-bin -soak $(if $(SOAK_RUNS),-soak-runs $(SOAK_RUNS)) \
		-soak-triage soak-triage

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

# fuzz-smoke runs the corpus-seeded fuzz targets for FUZZTIME each —
# the same smoke CI runs on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSetUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/task
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/timeunit
	$(GO) test -run '^$$' -fuzz '^FuzzVerdictRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDistFrame$$' -fuzztime $(FUZZTIME) ./internal/expt
	$(GO) test -run '^$$' -fuzz '^FuzzDistJournal$$' -fuzztime $(FUZZTIME) ./internal/expt

# profile writes pprof CPU and heap profiles of the benchmark suite;
# inspect with `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/ftmc-bench -out - -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof"

# pgo refreshes the committed profile-guided-optimization input: a CPU
# profile of the benchmark suite (the safety kernel and sweep engines
# dominate it) written where `go build`'s default -pgo=auto finds it —
# default.pgo in the main package directory. Commit the refreshed file;
# the CI pgo job asserts it stays present and loadable.
pgo:
	$(GO) run ./cmd/ftmc-bench -out - -benchtime 250ms \
		-cpuprofile cmd/ftmc-bench/default.pgo > /dev/null
	$(GO) build -pgo=auto -o /dev/null ./cmd/ftmc-bench
	@echo "wrote cmd/ftmc-bench/default.pgo"

clean:
	$(GO) clean ./...
