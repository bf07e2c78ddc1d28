// Package gen generates the workloads of the paper's evaluation (§5,
// Appendix C): random implicit-deadline dual-criticality task sets for the
// extensive simulations (Fig. 3) and instances of the flight management
// system use case (Table 4, Figs. 1–2).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/criticality"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Params controls the Appendix C random task generator. The generator
// starts from an empty set and adds random tasks until the target system
// utilization U is reached.
type Params struct {
	// UMin, UMax bound the per-task utilization u_i = C_i/T_i, drawn
	// uniformly: 0 < UMin < UMax ≤ 1. The paper uses [0.01, 0.2].
	UMin, UMax float64
	// TargetU is the system utilization U = Σ C_i/T_i to reach.
	TargetU float64
	// TMin, TMax bound the periods, drawn uniformly. The paper uses
	// [200 ms, 2 s].
	TMin, TMax timeunit.Time
	// PHI is the probability that a task is HI criticality. The paper
	// uses 0.2.
	PHI float64
	// HILevel and LOLevel are the DO-178B levels of the two classes,
	// e.g. B and D.
	HILevel, LOLevel criticality.Level
	// FailProb is the universal per-attempt failure probability f.
	FailProb float64
}

// PaperParams returns the Appendix C parameters (u ∈ [0.01, 0.2],
// T ∈ [200 ms, 2 s], P_HI = 0.2) for the given levels, target utilization
// and failure probability.
func PaperParams(hi, lo criticality.Level, targetU, failProb float64) Params {
	return Params{
		UMin: 0.01, UMax: 0.2,
		TargetU: targetU,
		TMin:    timeunit.Milliseconds(200),
		TMax:    timeunit.Seconds(2),
		PHI:     0.2,
		HILevel: hi, LOLevel: lo,
		FailProb: failProb,
	}
}

// maxDrawTasks bounds the tasks one Appendix C draw may append. Each pass
// of its loop adds about UMin or more of utilization, so Validate refuses
// a TargetU above maxDrawTasks·UMin (1,000 at the paper's UMin = 0.01).
// Without the bound a huge finite target allocates until the process
// dies, and once adding u ≤ UMax no longer changes the float total
// (around 10^15) the loop cannot end at all.
const maxDrawTasks = 100_000

// Validate reports parameter errors.
func (p Params) Validate() error {
	if !(0 < p.UMin && p.UMin < p.UMax && p.UMax <= 1) {
		return fmt.Errorf("gen: need 0 < UMin < UMax <= 1, got [%g, %g]", p.UMin, p.UMax)
	}
	switch {
	case math.IsNaN(p.TargetU):
		return fmt.Errorf("gen: target utilization is NaN")
	case math.IsInf(p.TargetU, 1):
		return fmt.Errorf("gen: target utilization must be finite, got %g", p.TargetU)
	case p.TargetU <= 0:
		return fmt.Errorf("gen: target utilization must be positive, got %g", p.TargetU)
	case p.TargetU > maxDrawTasks*p.UMin:
		return fmt.Errorf("gen: target utilization must be at most %g (%d tasks of UMin = %g), got %g",
			maxDrawTasks*p.UMin, maxDrawTasks, p.UMin, p.TargetU)
	}
	if !(0 < p.TMin && p.TMin <= p.TMax) {
		return fmt.Errorf("gen: need 0 < TMin <= TMax, got [%v, %v]", p.TMin, p.TMax)
	}
	if !(0 < p.PHI && p.PHI < 1) {
		return fmt.Errorf("gen: P_HI must be in (0,1), got %g", p.PHI)
	}
	if !p.HILevel.MoreCriticalThan(p.LOLevel) {
		return fmt.Errorf("gen: HI level %v must be more critical than LO level %v", p.HILevel, p.LOLevel)
	}
	if math.IsNaN(p.FailProb) {
		return fmt.Errorf("gen: failure probability is NaN")
	}
	if p.FailProb < 0 || p.FailProb >= 1 {
		return fmt.Errorf("gen: failure probability must be in [0,1), got %g", p.FailProb)
	}
	return nil
}

// TaskSet draws one random dual-criticality task set per Appendix C:
// tasks are added with u ~ U[UMin, UMax] and T ~ U[TMin, TMax] until the
// target utilization is reached (the last task is shrunk to land on the
// target exactly). Sets lacking one of the two classes are redrawn so the
// result is always a valid dual-criticality system. It runs a Drawer's
// draw loop once on rng, so the set is the one Drawer.Draw would give on
// the same RNG state, and it owns its memory.
func TaskSet(rng *rand.Rand, p Params) (*task.Set, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return (&Drawer{p: p, rng: rng}).draw()
}
