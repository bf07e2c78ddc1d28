package safety

import (
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// The batched kernel's contract is BIT identity with the scalar path,
// not just 1e-12 agreement: batched engines (the campaign chunks) mix
// batch and scalar/cached evaluations of the same quantities and the
// worker-invariance guarantees require the mix to be invisible.
// Every comparison below is therefore ==, not relDiff.

// batchCase draws one uniform-profile eq. (5) instance reusing the
// randomized task shapes of diffCase (both kernel regimes, degenerate
// corners) and returns it as a KillJob plus the scalar reference inputs.
func batchCase(rng *rand.Rand) (Config, KillJob) {
	cfg, hi, lo, _, _ := diffCase(rng)
	return cfg, KillJob{HI: hi, LO: lo, NPrime: 1 + rng.Intn(5), NLO: 1 + rng.Intn(4)}
}

// scalarRef evaluates one job through the scalar boundary-merge kernel.
func scalarRef(t *testing.T, cfg Config, jb KillJob) float64 {
	t.Helper()
	adapt, err := NewUniformAdaptation(cfg, jb.HI, jb.NPrime)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.KillingPFHLOUniform(jb.LO, jb.NLO, adapt)
}

func TestKillingBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	b := NewBatchLO()
	for round := 0; round < 24; round++ {
		// One shared Config per batch (the kernel API is a Config method).
		cfg := Config{OperationHours: 1 + rng.Intn(3), AssumeFullWCET: rng.Intn(4) != 0}
		width := 1 + rng.Intn(24)
		jobs := make([]KillJob, 0, width)
		for len(jobs) < width {
			caseCfg, jb := batchCase(rng)
			_ = caseCfg // shapes only; profiles/tasks are what vary
			jobs = append(jobs, jb)
		}
		out := make([]float64, len(jobs))
		cfg.KillingBatch(jobs, out, b)
		for i, jb := range jobs {
			want := scalarRef(t, cfg, jb)
			if out[i] != want {
				t.Errorf("round %d job %d: batch %.17g != scalar %.17g (width %d)",
					round, i, out[i], want, width)
			}
		}
	}
}

func TestKillingBatchOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBatchLO()
	for cse := 0; cse < 100; cse++ {
		cfg, jb := batchCase(rng)
		var out [1]float64
		cfg.KillingBatch([]KillJob{jb}, out[:], b)
		if want := scalarRef(t, cfg, jb); out[0] != want {
			t.Errorf("case %d: batch-of-1 %.17g != scalar %.17g", cse, out[0], want)
		}
	}
}

// Random batch slicing: any partition of a corpus into consecutive
// sub-batches — and any job order — produces the same per-job values,
// because lanes only interleave *independent* per-set chains.
func TestKillingBatchSlicing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Config{OperationHours: 1, AssumeFullWCET: true}
	jobs := make([]KillJob, 64)
	want := make([]float64, len(jobs))
	for i := range jobs {
		_, jobs[i] = batchCase(rng)
		want[i] = scalarRef(t, cfg, jobs[i])
	}
	b := NewBatchLO()

	full := make([]float64, len(jobs))
	cfg.KillingBatch(jobs, full, b)
	for i := range jobs {
		if full[i] != want[i] {
			t.Fatalf("full batch job %d: %.17g != %.17g", i, full[i], want[i])
		}
	}

	for trial := 0; trial < 10; trial++ {
		got := make([]float64, len(jobs))
		for start := 0; start < len(jobs); {
			end := start + 1 + rng.Intn(9)
			if end > len(jobs) {
				end = len(jobs)
			}
			cfg.KillingBatch(jobs[start:end], got[start:end], b)
			start = end
		}
		for i := range jobs {
			if got[i] != want[i] {
				t.Fatalf("trial %d job %d: sliced %.17g != scalar %.17g", trial, i, got[i], want[i])
			}
		}
	}

	perm := rng.Perm(len(jobs))
	shuffled := make([]KillJob, len(jobs))
	for i, p := range perm {
		shuffled[i] = jobs[p]
	}
	got := make([]float64, len(jobs))
	cfg.KillingBatch(shuffled, got, b)
	for i, p := range perm {
		if got[i] != want[p] {
			t.Fatalf("shuffled job %d (orig %d): %.17g != %.17g", i, p, got[i], want[p])
		}
	}
}

// Paper-workload differential: Appendix C draws at the campaign's
// operating points, where incommensurate µs periods force the generic
// sweep — the batched kernel's hot path.
func TestKillingBatchDifferentialPaper(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBatchLO()
	for _, f := range []float64{1e-3, 1e-5} {
		jobs, _ := paperBatchCorpus(t, 32, f)
		out := make([]float64, len(jobs))
		cfg.KillingBatch(jobs, out, b)
		for i, jb := range jobs {
			if want := scalarRef(t, cfg, jb); out[i] != want {
				t.Errorf("f=%g job %d: batch %.17g != scalar %.17g", f, i, out[i], want)
			}
		}
	}
}

// paperBatchCorpus draws width Appendix C sets at U = 0.8 and returns
// them as uniform-profile kill jobs (n_LO = 2, n′ = 2, the common
// campaign probe shape). Task slices are copied out of the generator.
func paperBatchCorpus(tb testing.TB, width int, f float64) ([]KillJob, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	jobs := make([]KillJob, 0, width)
	stairs := 0
	for len(jobs) < width {
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.8, f))
		if err != nil {
			continue
		}
		hi := append([]task.Task(nil), s.ByClass(criticality.HI)...)
		lo := append([]task.Task(nil), s.ByClass(criticality.LO)...)
		if len(hi) == 0 || len(lo) == 0 {
			continue
		}
		stairs += len(hi)
		jobs = append(jobs, KillJob{HI: hi, LO: lo, NPrime: 2, NLO: 2})
	}
	return jobs, stairs
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

// FuzzKillingBatchPacker drives the SoA packer and lane scheduler from
// fuzzed bytes — batch width, profiles, task shapes — and requires bit
// identity with the scalar kernel on every job.
func FuzzKillingBatchPacker(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(2))
	f.Add(int64(42), uint8(1), uint8(1), uint8(1))
	f.Add(int64(7), uint8(16), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, width, nprime, nlo uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(width%24)
		np := 1 + int(nprime%6)
		nl := 1 + int(nlo%4)
		cfg := Config{OperationHours: 1 + rng.Intn(3), AssumeFullWCET: rng.Intn(2) == 0}
		jobs := make([]KillJob, 0, w)
		for len(jobs) < w {
			_, jb := batchCase(rng)
			jb.NPrime, jb.NLO = np, nl
			jobs = append(jobs, jb)
		}
		out := make([]float64, len(jobs))
		cfg.KillingBatch(jobs, out, NewBatchLO())
		for i, jb := range jobs {
			if want := scalarRef(t, cfg, jb); out[i] != want {
				t.Fatalf("job %d: batch %.17g != scalar %.17g", i, out[i], want)
			}
		}
	})
}

// The acceptance headline: ≥ 2x ns/set over the scalar kernel at batch
// width ≥ 64 on the paper workload (asserted by the bench harness, not
// here; the scalar twin below shares the same corpora).
func BenchmarkKillingBatch(b *testing.B) {
	for _, f := range []float64{1e-3, 1e-5} {
		b.Run(fName(f), func(b *testing.B) {
			cfg := DefaultConfig()
			jobs, _ := paperBatchCorpus(b, 64, f)
			out := make([]float64, len(jobs))
			bl := NewBatchLO()
			cfg.KillingBatch(jobs, out, bl) // warm the arenas
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cfg.KillingBatch(jobs, out, bl)
			}
		})
	}
}

func BenchmarkKillingBatchScalar(b *testing.B) {
	for _, f := range []float64{1e-3, 1e-5} {
		b.Run(fName(f), func(b *testing.B) {
			cfg := DefaultConfig()
			jobs, _ := paperBatchCorpus(b, 64, f)
			adapts := make([]*Adaptation, len(jobs))
			for i, jb := range jobs {
				a, err := NewUniformAdaptation(cfg, jb.HI, jb.NPrime)
				if err != nil {
					b.Fatal(err)
				}
				adapts[i] = a
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i, jb := range jobs {
					_ = cfg.KillingPFHLOUniform(jb.LO, jb.NLO, adapts[i])
				}
			}
		})
	}
}

func fName(f float64) string {
	if f == 1e-3 {
		return "f=1e-3"
	}
	return "f=1e-5"
}
