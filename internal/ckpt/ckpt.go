// Package ckpt models checkpoint-based fault tolerance as an alternative
// to the paper's whole-job re-execution — the technique of the paper's
// references [8, 13]. A job is split into k equal segments with a
// checkpoint (cost o) after each; a transient fault detected by the
// per-segment sanity check rolls back only the failed segment, which may
// retry up to m times.
//
// The certifiable worst case assumes every segment burns all m attempts:
//
//	L(k, m) = k·m·(C/k + o) = m·C + k·m·o,
//
// and a round fails when any segment exhausts its retries:
//
//	q(k, m) = 1 − (1 − f_s^m)^k,  f_s = 1 − e^{−λ(C/k + o)}.
//
// Against whole-job re-execution (k = 1, o = 0: L = n·C, q = f^n) the
// trade is exposure: shorter segments fail less per attempt, so the same
// safety may need fewer retries and less budget — until the overhead k·m·o
// and the k-fold failure opportunities eat the gain. Optimize searches
// that trade-off exactly.
package ckpt

import (
	"fmt"
	"math"

	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Params is one checkpointing configuration for a task.
type Params struct {
	// Segments is k ≥ 1; k = 1 with zero overhead degenerates to
	// whole-job re-execution.
	Segments int
	// Retries is m ≥ 1: attempts allowed per segment.
	Retries int
	// Overhead is the checkpoint save/restore cost o per segment attempt.
	Overhead timeunit.Time
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Segments < 1 || p.Retries < 1 {
		return fmt.Errorf("ckpt: need k >= 1 and m >= 1, got k=%d m=%d", p.Segments, p.Retries)
	}
	if p.Overhead < 0 {
		return fmt.Errorf("ckpt: negative overhead %v", p.Overhead)
	}
	return nil
}

// RoundLength returns the certifiable worst-case budget L(k, m) for a job
// of WCET c: every segment retried m times, each attempt paying the
// segment plus its checkpoint. Segment sizes are rounded up to whole
// microseconds so the budget never under-approximates.
func (p Params) RoundLength(c timeunit.Time) timeunit.Time {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	segment := (c + timeunit.Time(p.Segments) - 1) / timeunit.Time(p.Segments)
	return timeunit.Time(p.Segments*p.Retries) * (segment + p.Overhead)
}

// SegmentFailProb returns f_s = 1 − e^{−λ·(C/k + o)} under the rate
// model.
func (p Params) SegmentFailProb(c timeunit.Time, rate safety.FaultRate) prob.P {
	segment := (c + timeunit.Time(p.Segments) - 1) / timeunit.Time(p.Segments)
	return rate.AttemptFailProb(segment + p.Overhead)
}

// RoundFailProb returns q(k, m) = 1 − (1 − f_s^m)^k.
func (p Params) RoundFailProb(c timeunit.Time, rate safety.FaultRate) prob.P {
	fs := p.SegmentFailProb(c, rate)
	if fs == 0 {
		return 0
	}
	if fs >= 1 {
		return 1
	}
	return prob.OneMinusExp(float64(p.Segments) * prob.Log1mPow(fs, p.Retries))
}

// Reexec returns the whole-job re-execution configuration with n
// attempts, for comparison: k = 1, m = n, o = 0.
func Reexec(n int) Params { return Params{Segments: 1, Retries: n} }

// Optimize searches k ∈ [1, maxK], m ∈ [1, maxM] for the configuration
// with the smallest worst-case budget whose round failure probability
// meets the target; ok = false when no configuration does. Ties prefer
// fewer segments (fewer moving parts).
func Optimize(c timeunit.Time, rate safety.FaultRate, overhead timeunit.Time, target float64, maxK, maxM int) (Params, bool) {
	var best Params
	bestLen := timeunit.Time(math.MaxInt64)
	found := false
	for k := 1; k <= maxK; k++ {
		for m := 1; m <= maxM; m++ {
			p := Params{Segments: k, Retries: m, Overhead: overhead}
			if p.RoundFailProb(c, rate) > target {
				continue
			}
			if l := p.RoundLength(c); l < bestLen {
				best, bestLen, found = p, l, true
			}
			break // larger m only costs more at the same k
		}
	}
	return best, found
}

// Comparison reports checkpointing against plain re-execution for one
// task at one fault rate and safety target.
type Comparison struct {
	// Task is the subject.
	Task task.Task
	// ReexecN is the minimal whole-job re-execution count meeting the
	// target (0 when none does within the cap).
	ReexecN int
	// ReexecBudget is n·C.
	ReexecBudget timeunit.Time
	// Ckpt is the optimized checkpoint configuration.
	Ckpt Params
	// CkptBudget is L(k, m).
	CkptBudget timeunit.Time
	// BudgetRatio is CkptBudget/ReexecBudget (< 1: checkpointing wins).
	BudgetRatio float64
}

// Compare sizes both mechanisms for a per-round failure target. maxK and
// maxM cap the search; overhead is the checkpoint cost.
func Compare(t task.Task, rate safety.FaultRate, overhead timeunit.Time, target float64, maxK, maxM int) (Comparison, error) {
	cmp := Comparison{Task: t}
	for n := 1; n <= maxM; n++ {
		if Reexec(n).RoundFailProb(t.WCET, rate) <= target {
			cmp.ReexecN = n
			cmp.ReexecBudget = t.WCET.MulSafe(n)
			break
		}
	}
	p, ok := Optimize(t.WCET, rate, overhead, target, maxK, maxM)
	if !ok {
		return cmp, fmt.Errorf("ckpt: no configuration within k<=%d, m<=%d meets %g", maxK, maxM, target)
	}
	cmp.Ckpt = p
	cmp.CkptBudget = p.RoundLength(t.WCET)
	if cmp.ReexecBudget > 0 {
		cmp.BudgetRatio = cmp.CkptBudget.Float() / cmp.ReexecBudget.Float()
	}
	return cmp, nil
}
