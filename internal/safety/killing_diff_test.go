package safety

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Differential test of the boundary-merge kernel (killing_fast.go)
// against the naive per-point evaluation of eq. (5): randomized task sets
// spanning both kernel regimes (grid-aligned periods → patterned table,
// µs-jittered periods → phase-recurrence fallback) and the degenerate
// corners (r = 0 tasks, f = 0 tasks, n′ ≥ n_HI profiles, D ≠ T), with
// ≤ 1e-12 relative agreement required throughout.

// diffCase draws one random analysis instance. Periods are floored so the
// naive evaluation stays fast enough to run hundreds of cases.
func diffCase(rng *rand.Rand) (cfg Config, hi, lo []task.Task, nprime, ns []int) {
	cfg = Config{
		OperationHours: 1 + rng.Intn(3),
		AssumeFullWCET: rng.Intn(4) != 0,
	}
	horizon := int64(cfg.Horizon())
	gridded := rng.Intn(2) == 0 // exercise the patterned path half the time

	period := func(maxRounds int64) timeunit.Time {
		p := horizon / (1 + rng.Int63n(maxRounds))
		if gridded {
			// Snap to a 100 ms grid so T_j/gcd(T, T_j) stays small.
			const grid = int64(100 * timeunit.Millisecond)
			p = (p/grid + 1) * grid
		} else {
			p += rng.Int63n(1000) + 1 // µs jitter: incommensurate periods
		}
		return timeunit.Time(p)
	}
	failProb := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return math.Pow(10, -1-6*rng.Float64())
	}

	nHI := 1 + rng.Intn(6)
	for j := 0; j < nHI; j++ {
		T := period(50_000)
		hi = append(hi, task.Task{
			Name: "hi", Period: T, Deadline: T,
			WCET:  1 + timeunit.Time(rng.Int63n(int64(T))),
			Level: criticality.LevelB, FailProb: failProb(),
		})
		nprime = append(nprime, 1+rng.Intn(5)) // includes n′ ≥ n_HI degenerates
	}
	nLO := 1 + rng.Intn(4)
	for i := 0; i < nLO; i++ {
		T := period(4000)
		D := T
		switch rng.Intn(3) {
		case 0:
			D = 1 + T/timeunit.Time(1+rng.Intn(3)) // constrained deadline
		case 1:
			D = T + timeunit.Time(rng.Int63n(int64(T))) // arbitrary deadline
		}
		wcet := 1 + timeunit.Time(rng.Int63n(int64(T)))
		if rng.Intn(8) == 0 {
			wcet = timeunit.Time(horizon) // r = 0: no round fits
		}
		lo = append(lo, task.Task{
			Name: "lo", Period: T, Deadline: D,
			WCET: wcet, Level: criticality.LevelD, FailProb: failProb(),
		})
		ns = append(ns, 1+rng.Intn(4))
	}
	return cfg, hi, lo, nprime, ns
}

func TestKillingKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for cse := 0; cse < 200; cse++ {
		cfg, hi, lo, nprime, ns := diffCase(rng)
		adapt, err := NewAdaptation(cfg, hi, nprime)
		if err != nil {
			t.Fatalf("case %d: %v", cse, err)
		}
		fast := cfg.KillingPFHLO(lo, ns, adapt)
		naive := cfg.killingPFHLONaive(lo, ns, adapt)
		if math.IsNaN(fast) || fast < 0 {
			t.Fatalf("case %d: fast kernel returned %g", cse, fast)
		}
		if d := relDiff(fast, naive); d > 1e-12 {
			t.Errorf("case %d: fast %.17g vs naive %.17g (rel %.3g)\ncfg %+v\nhi %v n' %v\nlo %v n %v",
				cse, fast, naive, d, cfg, hi, nprime, lo, ns)
		}
	}
}

// The FMS workload is the benchmark headline: pin the agreement there
// explicitly, at the profile Algorithm 1 selects.
func TestKillingKernelDifferentialFMS(t *testing.T) {
	// Mirrors the Table 4 shape without importing internal/gen (cycle):
	// seven level B tasks and four level C tasks, periods from the table.
	mk := func(T, C int64, l criticality.Level) task.Task {
		return task.Task{Name: "t", Period: ms(T), Deadline: ms(T),
			WCET: ms(C), Level: l, FailProb: 1e-5}
	}
	var hi, lo []task.Task
	for _, T := range []int64{5000, 200, 1000, 1600, 100, 1000, 1000} {
		hi = append(hi, mk(T, 1+T/100, criticality.LevelB))
	}
	for range 4 {
		lo = append(lo, mk(1000, 10, criticality.LevelC))
	}
	cfg := Config{OperationHours: 10, AssumeFullWCET: true}
	for np := 1; np <= 4; np++ {
		adapt, err := NewUniformAdaptation(cfg, hi, np)
		if err != nil {
			t.Fatal(err)
		}
		fast := cfg.KillingPFHLOUniform(lo, 2, adapt)
		naive := cfg.killingPFHLONaive(lo, []int{2, 2, 2, 2}, adapt)
		if d := relDiff(fast, naive); d > 1e-12 {
			t.Errorf("n'=%d: fast %.17g vs naive %.17g (rel %.3g)", np, fast, naive, d)
		}
	}
}

// The degradation path (eq. 7) is not migrated to the merge kernel: it
// evaluates R and ω at the single point t, an O(|τ_HI| + |τ_LO|)
// computation with nothing to merge. Pin the bound to its definitional
// composition so any future migration inherits a reference.
func TestDegradationPFHLOMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for cse := 0; cse < 50; cse++ {
		cfg, hi, lo, nprime, ns := diffCase(rng)
		adapt, err := NewAdaptation(cfg, hi, nprime)
		if err != nil {
			t.Fatal(err)
		}
		df := 1.5 + 10*rng.Float64()
		got := cfg.DegradationPFHLO(lo, ns, adapt, df)
		th := cfg.Horizon()
		want := adapt.AdaptProb(th) * cfg.Omega(lo, ns, 1, th) / float64(cfg.OperationHours)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("case %d: eq. (7) %.17g vs composition %.17g (rel %.3g)", cse, got, want, d)
		}
	}
}
