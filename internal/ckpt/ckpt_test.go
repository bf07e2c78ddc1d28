package ckpt

import (
	"math"
	"testing"

	"repro/internal/criticality"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

func ms(v int64) timeunit.Time { return timeunit.Milliseconds(v) }

func TestParamsValidate(t *testing.T) {
	if err := (Params{Segments: 2, Retries: 3, Overhead: ms(1)}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, p := range []Params{{0, 1, 0}, {1, 0, 0}, {1, 1, -1}} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestRoundLength(t *testing.T) {
	// k=1, m=n, o=0 degenerates to n·C.
	if got := Reexec(3).RoundLength(ms(5)); got != ms(15) {
		t.Errorf("reexec round = %v, want 15ms", got)
	}
	// k=4, m=2, o=1ms, C=40ms: segment 10ms → 4·2·(10+1) = 88ms.
	p := Params{Segments: 4, Retries: 2, Overhead: ms(1)}
	if got := p.RoundLength(ms(40)); got != ms(88) {
		t.Errorf("round = %v, want 88ms", got)
	}
	// Non-dividing C rounds the segment up to whole µs: C=41ms, k=4 →
	// 10250 µs segments → 8·(10250+1000) = 90 ms.
	if got := p.RoundLength(ms(41)); got != ms(90) {
		t.Errorf("round = %v, want 90ms", got)
	}
}

func TestRoundFailProbDegeneratesToReexec(t *testing.T) {
	rate := safety.FaultRate{PerHour: 3600} // 1 fault per second of exposure
	c := ms(100)
	f := rate.AttemptFailProb(c)
	for n := 1; n <= 3; n++ {
		got := Reexec(n).RoundFailProb(c, rate)
		want := math.Pow(f, float64(n))
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("n=%d: q = %g, want f^n = %g", n, got, want)
		}
	}
}

func TestRoundFailProbBounds(t *testing.T) {
	rate := safety.FaultRate{PerHour: 10}
	p := Params{Segments: 3, Retries: 2, Overhead: ms(1)}
	q := p.RoundFailProb(ms(30), rate)
	if q <= 0 || q >= 1 {
		t.Errorf("q = %g out of (0,1)", q)
	}
	if z := p.RoundFailProb(ms(30), safety.FaultRate{PerHour: 0}); z != 0 {
		t.Errorf("zero rate: q = %g", z)
	}
}

// Splitting a long job reduces the per-attempt exposure: at equal m and
// negligible overhead, more segments give a round failure probability
// that is never dramatically worse and a budget that shrinks with the
// needed retries. Pin the flagship case: a 400 ms job at a rate where
// whole-job re-execution needs n = 3, checkpointing with k = 8 needs
// m = 2 at a fraction of the budget.
func TestCheckpointingBeatsReexecOnHeavyJobs(t *testing.T) {
	heavy := task.Task{Name: "plan", Period: ms(4000), Deadline: ms(4000),
		WCET: ms(400), Level: criticality.LevelB, FailProb: 0}
	rate := safety.FaultRate{PerHour: 90} // f(400ms) = 1%
	target := 1e-7
	cmp, err := Compare(heavy, rate, ms(1), target, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReexecN == 0 {
		t.Fatal("re-execution should meet the target within the cap")
	}
	if cmp.ReexecN < 3 {
		t.Errorf("reexec n = %d, expected >= 3 at f = 1%%", cmp.ReexecN)
	}
	if cmp.Ckpt.Segments < 2 {
		t.Errorf("optimizer chose k = %d, expected segmentation to win", cmp.Ckpt.Segments)
	}
	if cmp.BudgetRatio >= 1 {
		t.Errorf("checkpointing budget ratio = %.2f, expected < 1 (budget %v vs %v)",
			cmp.BudgetRatio, cmp.CkptBudget, cmp.ReexecBudget)
	}
	// The chosen configuration really meets the target.
	if q := cmp.Ckpt.RoundFailProb(heavy.WCET, rate); q > target {
		t.Errorf("optimized q = %g > target %g", q, target)
	}
}

// With heavy overhead, segmentation stops paying and the optimizer falls
// back to few segments.
func TestOptimizerRespectsOverhead(t *testing.T) {
	rate := safety.FaultRate{PerHour: 90}
	cheap, ok := Optimize(ms(400), rate, 0, 1e-7, 16, 8)
	if !ok {
		t.Fatal("no configuration at zero overhead")
	}
	costly, ok := Optimize(ms(400), rate, ms(50), 1e-7, 16, 8)
	if !ok {
		t.Fatal("no configuration at heavy overhead")
	}
	if costly.Segments > cheap.Segments {
		t.Errorf("overhead should discourage segmentation: %d > %d", costly.Segments, cheap.Segments)
	}
	if costly.RoundLength(ms(400)) < cheap.RoundLength(ms(400)) {
		t.Error("heavy overhead cannot shrink the budget")
	}
}

// Exhaustive cross-check: the optimizer's pick has the minimal budget
// among all feasible (k, m) in range.
func TestOptimizeIsExhaustivelyMinimal(t *testing.T) {
	rate := safety.FaultRate{PerHour: 360}
	c := ms(100)
	target := 1e-6
	best, ok := Optimize(c, rate, ms(2), target, 10, 6)
	if !ok {
		t.Fatal("no configuration found")
	}
	for k := 1; k <= 10; k++ {
		for m := 1; m <= 6; m++ {
			p := Params{Segments: k, Retries: m, Overhead: ms(2)}
			if p.RoundFailProb(c, rate) > target {
				continue
			}
			if p.RoundLength(c) < best.RoundLength(c) {
				t.Fatalf("optimizer missed k=%d m=%d (budget %v < %v)",
					k, m, p.RoundLength(c), best.RoundLength(c))
			}
		}
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	// A rate so hot nothing in range meets 1e-9.
	rate := safety.FaultRate{PerHour: 3.6e6}
	if _, ok := Optimize(ms(100), rate, 0, 1e-9, 4, 2); ok {
		t.Error("expected infeasibility")
	}
	if _, err := Compare(task.Task{WCET: ms(100), Period: ms(200)}, rate, 0, 1e-9, 4, 2); err == nil {
		t.Error("Compare should propagate infeasibility")
	}
}

func TestRoundLengthPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Params{}.RoundLength(ms(1))
}
