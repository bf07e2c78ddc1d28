package harness

import (
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/timeunit"
)

// smokeRuns resolves the sweep budget: FTMC_SOAK_RUNS when set (the
// Makefile's SOAK_RUNS knob; `make soak-deep` sets 10^5), else two full
// passes over the cross-product — enough to hit every cell twice with
// different drawn parameters while staying seconds-scale.
func smokeRuns(t *testing.T, space *Space) int {
	if v := os.Getenv("FTMC_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FTMC_SOAK_RUNS=%q: want a positive integer", v)
		}
		return n
	}
	return 2 * space.Cells()
}

// TestSoakSmoke is both soak tiers: a sweep of the default cross-product
// with triage armed, run under -race at the default budget by `make
// soak` (every push) and without -race at 10^5 runs by `make soak-deep`
// (nightly). Any violated invariant fails the test and leaves its
// minimized repro record in the test's artifacts.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short mode")
	}
	space := DefaultSpace()
	// FTMC_SOAK_TRIAGE pins the triage directory to a survivable path
	// (the CI soak jobs upload it as an artifact on failure); unset, the
	// records live and die with the test.
	dir := os.Getenv("FTMC_SOAK_TRIAGE")
	if dir == "" {
		dir = t.TempDir()
	}
	res, err := Soak(Options{
		Seed:      1,
		Runs:      smokeRuns(t, space),
		Space:     space,
		TriageDir: dir,
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	t.Log(res.String())
	if res.Failed() {
		for _, f := range res.Failures {
			t.Errorf("run %d (%s/%s/%s/%s) violated:", f.Spec.Index,
				f.Spec.Workload, f.Spec.Backend, f.Spec.Mode, f.Spec.Fault)
			for _, v := range f.Violations {
				t.Errorf("  %s", v)
			}
			if f.Path != "" {
				data, _ := os.ReadFile(f.Path)
				t.Logf("triage record %s:\n%s", f.Path, data)
			}
		}
		t.Fatalf("%d/%d runs violated invariants (%d panics)",
			res.ViolationRuns, res.Runs, res.PanicRuns)
	}
	// The sweep must actually have churned the shared caches: a soak
	// that never misses or never evicts is not stressing eviction.
	if res.ServeCacheMisses == 0 {
		t.Fatalf("serve cache saw no misses — the sweep did not reach the analysis path")
	}
	if res.ShardContexts == 0 {
		t.Fatalf("shard pool holds no contexts — the shared-cache route did not run")
	}
}

// TestSoakDeterminismAcrossWorkersAndLeases pins the tentpole's
// schedule-invariance claim: the sweep digest — a fold of every run's
// complete outcome — is identical at every pool width and lease
// (chunk) shape, including the serial pool.
func TestSoakDeterminismAcrossWorkersAndLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	const runs = 96
	shapes := []struct{ workers, chunk int }{
		{1, 7}, {2, 3}, {5, 16}, {3, 1},
	}
	var want Result
	for i, sh := range shapes {
		res, err := Soak(Options{
			Seed:    7,
			Runs:    runs,
			Workers: sh.workers,
			Chunk:   sh.chunk,
		})
		if err != nil {
			t.Fatalf("Soak(workers=%d, chunk=%d): %v", sh.workers, sh.chunk, err)
		}
		if res.Failed() {
			t.Fatalf("Soak(workers=%d, chunk=%d): %d violations, first: %+v",
				sh.workers, sh.chunk, res.ViolationRuns, res.Failures[0].Violations)
		}
		if i == 0 {
			want = res
			continue
		}
		if res.Digest != want.Digest {
			t.Fatalf("digest diverged: workers=%d chunk=%d gave %016x, workers=%d chunk=%d gave %016x",
				shapes[0].workers, shapes[0].chunk, want.Digest, sh.workers, sh.chunk, res.Digest)
		}
	}
}

// TestSpaceCoverage pins the cell addressing: one full pass over the
// default space visits every cell exactly once, and SpecAt is a pure
// function of its coordinates.
func TestSpaceCoverage(t *testing.T) {
	space := DefaultSpace()
	type cell struct {
		w, b, m, f string
		df         float64
	}
	seen := map[cell]int{}
	for i := 0; i < space.Cells(); i++ {
		spec := space.SpecAt(42, i)
		seen[cell{spec.Workload, spec.Backend, spec.Mode, spec.Fault, spec.DF}]++
		if again := space.SpecAt(42, i); again != spec {
			t.Fatalf("SpecAt(42, %d) is not deterministic: %+v vs %+v", i, spec, again)
		}
	}
	if len(seen) != space.Cells() {
		t.Fatalf("one pass visited %d distinct cells, want %d", len(seen), space.Cells())
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %+v visited %d times in one pass", c, n)
		}
	}
}

// TestHostileDFRejected probes the zero/illegal-df corner of the
// hostile-config axis: every layer must refuse df ≤ 1 in Degrade mode
// at validation (error, not panic, not a wrong verdict).
func TestHostileDFRejected(t *testing.T) {
	spec := DefaultSpace().SpecAt(3, 0) // paper workload cell
	set, err := spec.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for _, df := range []float64{0, 1, -2.5} {
		opt := core.Options{
			Safety: safety.Config{OperationHours: 1},
			Mode:   safety.Degrade,
			DF:     df,
		}
		if _, err := core.FTS(set, opt); err == nil {
			t.Errorf("core.FTS accepted degrade df=%g", df)
		}
		if _, err := sim.New(sim.Config{
			Set: set, NHI: 2, NLO: 1, NPrime: 1,
			Mode: safety.Degrade, DF: df, VDFactor: 1,
			Horizon: timeunit.Seconds(1),
		}); err == nil {
			t.Errorf("sim.New accepted degrade df=%g", df)
		}
	}
	p := serve.NewPipeline(serve.Options{})
	defer p.Close()
	for _, df := range []float64{0, 1, -2.5} {
		_, err := p.Verdict(serve.Request{
			Tasks:  set.Tasks(),
			Safety: safety.Config{OperationHours: 1},
			Mode:   safety.Degrade,
			DF:     df,
		})
		if !errors.Is(err, serve.ErrInvalid) {
			t.Errorf("serve accepted degrade df=%g (err=%v)", df, err)
		}
	}
}

// TestExecutePinnedSetMatchesDrawn pins Materialize's pinning contract:
// executing a spec with its drawn set pinned in produces the same
// outcome digest as the draw-from-coordinates path.
func TestExecutePinnedSetMatchesDrawn(t *testing.T) {
	env := NewRunEnv()
	defer env.Close()
	space := DefaultSpace()
	for _, idx := range []int{0, 17, 100} {
		spec := space.SpecAt(11, idx)
		drawn := Execute(spec, env)
		set, err := spec.Materialize()
		if err != nil {
			t.Fatalf("Materialize(%d): %v", idx, err)
		}
		pinned := spec
		pinned.Tasks = set
		got := Execute(pinned, env)
		if drawn.Digest() != got.Digest() {
			t.Fatalf("index %d: pinned digest %016x != drawn digest %016x",
				idx, got.Digest(), drawn.Digest())
		}
	}
}

// TestRunSpecJSONRoundTrip pins the repro-record encoding: a spec with
// a pinned task set survives JSON round-tripping bit for bit (task.Set
// guarantees exact round-trip of its time fields).
func TestRunSpecJSONRoundTrip(t *testing.T) {
	spec := DefaultSpace().SpecAt(5, 33)
	set, err := spec.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	spec.Tasks = set

	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RunSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	env := NewRunEnv()
	defer env.Close()
	a, b := Execute(spec, env), Execute(back, env)
	if a.Digest() != b.Digest() {
		t.Fatalf("round-tripped spec diverged: %016x vs %016x", a.Digest(), b.Digest())
	}
	if got, want := back.Tasks.Len(), spec.Tasks.Len(); got != want {
		t.Fatalf("round-tripped set has %d tasks, want %d", got, want)
	}
}
