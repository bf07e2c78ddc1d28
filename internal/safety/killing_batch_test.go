package safety

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// checkKillingBatch runs jobs through KillingBatch on b and requires
// each answer to equal, bit for bit, the cached scalar probe the
// campaign engine uses (AdaptationCache.PFHLOUniform).
func checkKillingBatch(t *testing.T, name string, cfg Config, jobs []KillJob, b *BatchLO) {
	t.Helper()
	out := make([]float64, len(jobs))
	cfg.KillingBatch(jobs, out, b)
	for i, jb := range jobs {
		want, err := NewAdaptationCache(cfg, jb.HI, jb.LO).PFHLOUniform(Kill, jb.NLO, jb.NPrime, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Errorf("%s job %d: batch %.17g != cached scalar %.17g", name, i, out[i], want)
		}
	}
}

// TestKillingBatchDifferential pins KillingBatch to the cached scalar
// probe on randomized shapes (both kernel regimes, degenerate corners),
// with one BatchLO reused across batches of varying width.
func TestKillingBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	b := NewBatchLO()
	for round := 0; round < 24; round++ {
		cfg := Config{OperationHours: 1 + rng.Intn(3), AssumeFullWCET: rng.Intn(4) != 0}
		jobs := make([]KillJob, 1+rng.Intn(24))
		for i := range jobs {
			_, hi, lo, _, _ := diffCase(rng)
			jobs[i] = KillJob{HI: hi, LO: lo, NPrime: 1 + rng.Intn(5), NLO: 1 + rng.Intn(4)}
		}
		checkKillingBatch(t, "random", cfg, jobs, b)
	}
}

// TestKillingBatchDifferentialPaper pins KillingBatch to the cached
// scalar probe on Appendix C draws at the campaign's operating points.
func TestKillingBatchDifferentialPaper(t *testing.T) {
	b := NewBatchLO()
	for _, f := range []float64{1e-3, 1e-5} {
		prng := rand.New(rand.NewSource(99))
		var jobs []KillJob
		for len(jobs) < 32 {
			s, err := gen.TaskSet(prng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.8, f))
			if err != nil || len(s.ByClass(criticality.HI)) == 0 || len(s.ByClass(criticality.LO)) == 0 {
				continue
			}
			jobs = append(jobs, KillJob{HI: s.ByClass(criticality.HI), LO: s.ByClass(criticality.LO), NPrime: 2, NLO: 2})
		}
		checkKillingBatch(t, fmt.Sprintf("f=%g", f), DefaultConfig(), jobs, b)
	}
}

func TestKillingBatchPanics(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	T := timeunit.Time(1000)
	tk := task.Task{Name: "x", Period: T, Deadline: T, WCET: 1, Level: criticality.LevelB, FailProb: 1e-5}
	jb := KillJob{HI: []task.Task{tk}, LO: []task.Task{tk}, NPrime: 1, NLO: 1}
	if !mk(func() { cfg.KillingBatch([]KillJob{jb}, make([]float64, 2), nil) }) {
		t.Error("length mismatch did not panic")
	}
	bad := jb
	bad.NPrime = 0
	if !mk(func() { cfg.KillingBatch([]KillJob{bad}, make([]float64, 1), nil) }) {
		t.Error("NPrime = 0 did not panic")
	}
	bad = jb
	bad.NLO = 0
	if !mk(func() { cfg.KillingBatch([]KillJob{bad}, make([]float64, 1), nil) }) {
		t.Error("NLO = 0 did not panic")
	}
	// Empty batch and nil BatchLO are fine.
	cfg.KillingBatch(nil, nil, nil)
	cfg.KillingBatch([]KillJob{jb}, make([]float64, 1), nil)
}
