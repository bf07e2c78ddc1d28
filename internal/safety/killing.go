package safety

import (
	"fmt"
	"slices"

	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Adaptation models the trigger for killing or degrading the LO tasks:
// whenever any instance of HI task τ_i starts its (n′_i+1)-th execution
// attempt, all LO criticality tasks are killed (or degraded) thereafter
// (§3.3–3.4). n′_i is the killing/degradation ("adaptation") profile.
type Adaptation struct {
	hi     []task.Task
	nprime []int
	// logTerm[i] = log(1 − f_i^{n′_i}), hoisted out of logR: eq. (5)
	// evaluates R at tens of thousands of time points and this is the
	// only transcendental part that does not depend on the point.
	logTerm []float64
	cfg     Config
}

// NewAdaptation builds the adaptation model for the given HI tasks with
// per-task adaptation profiles.
func NewAdaptation(cfg Config, hiTasks []task.Task, nprime []int) (*Adaptation, error) {
	return new(Adaptation).init(cfg, hiTasks, nprime, 0)
}

// NewUniformAdaptation builds the model with the same profile n′ for every
// HI task, the restriction Algorithm 1 works under.
func NewUniformAdaptation(cfg Config, hiTasks []task.Task, nprime int) (*Adaptation, error) {
	return new(Adaptation).init(cfg, hiTasks, nil, nprime)
}

// init (re)initializes a in place for the HI tasks with per-task
// profiles ns, or the uniform profile n for every task when ns is nil,
// and returns it. It reuses a's profile and logTerm buffers: the
// constructors start from empty ones, and the AdaptationCache recycles
// retired models through it.
func (a *Adaptation) init(cfg Config, hiTasks []task.Task, ns []int, n int) (*Adaptation, error) {
	if ns != nil && len(ns) != len(hiTasks) {
		return nil, fmt.Errorf("safety: %d adaptation profiles for %d HI tasks", len(ns), len(hiTasks))
	}
	if ns == nil && n < 1 {
		return nil, fmt.Errorf("safety: adaptation profile must be >= 1, got %d", n)
	}
	nprime := slices.Grow(a.nprime[:0], len(hiTasks))
	logTerm := slices.Grow(a.logTerm[:0], len(hiTasks))
	var log1mPow runMemo
	for i, t := range hiTasks {
		if ns != nil {
			n = ns[i]
		}
		if n < 1 {
			return nil, fmt.Errorf("safety: adaptation profile of %q must be >= 1, got %d", t.Name, n)
		}
		term := 0.0
		if f := t.FailProb; f > 0 {
			term = log1mPow.log1mPow(f, n)
		}
		nprime = append(nprime, n)
		logTerm = append(logTerm, term)
	}
	a.cfg, a.hi, a.nprime, a.logTerm = cfg, hiTasks, nprime, logTerm
	return a, nil
}

// logR returns log R(N′_HI, t) per eq. (3):
//
//	R(N′_HI, t) = Π_{τ_i ∈ τ_HI} (1 − f_i^{n′_i})^{r_i(n′_i, t)}
//
// the probability that within [0, t] no HI instance starts its
// (n′_i+1)-th attempt, i.e. the LO tasks are not yet adapted.
func (a *Adaptation) logR(t timeunit.Time) float64 {
	logp := 0.0
	for i := range a.hi {
		if a.logTerm[i] == 0 {
			continue
		}
		r := a.cfg.Rounds(a.hi[i], a.nprime[i], t)
		logp += float64(r) * a.logTerm[i]
	}
	return logp
}

// AdaptProb returns 1 − R(N′_HI, t): the upper bound on the probability
// that the LO tasks are killed/degraded within [0, t]. Computed in the log
// domain so values of ~1e-10 keep full relative precision.
func (a *Adaptation) AdaptProb(t timeunit.Time) float64 {
	return prob.OneMinusExp(a.logR(t))
}

// KillingPFHLO implements eq. (5) of Lemma 3.3: the PFH of the LO
// criticality level when the LO tasks can be killed, with per-task
// re-execution profiles ns for the LO tasks:
//
//	pfh(LO) = [ Σ_{τ_i∈τ_LO} Σ_{α∈π_i(t)} (1 − R(N′_HI, α)·(1 − f_i^{n_i})) ] / OS
//
// with t = OS hours and π_i(t) the per-task sequence of latest round
// finishing times of eq. (4):
//
//	π_i(t) = { t − n_i·C_i − m·T_i + D_i | 1 ≤ m < r_i(n_i, t) } ∪ {t}.
//
// A LO round finishing at α fails either because the LO tasks were killed
// by then (prob. ≤ 1 − R(α)) or because, un-killed, all n_i attempts
// failed (prob. f_i^{n_i}); the bracket combines both.
//
// When r_i(n_i, t) = 0 no round of τ_i fits in [0, t] and the task
// contributes nothing (the number of summed terms equals the round count).
//
// KillingPFHLO evaluates the bound with the O(r_LO + Σ r_i) boundary-merge
// kernel of killing_fast.go; killingPFHLONaive (killing_naive_test.go) is
// the direct per-point evaluation, kept as the reference for differential
// tests and the baseline benchmark. The two agree to ≤ 1e-12 relative
// error (TestKillingKernelDifferential).
func (c Config) KillingPFHLO(loTasks []task.Task, ns []int, adapt *Adaptation) float64 {
	return c.killingPFHLOFast(loTasks, ns, 0, adapt, nil)
}

// KillingPFHLOLimit returns the n′ → ∞ limit of eq. (5): with the LO
// tasks (almost) never killed, each of the r_i(n_i, t) summed terms tends
// to f_i^{n_i}, so
//
//	lim pfh(LO) = Σ_{τ_i∈τ_LO} r_i(n_i, OS·1h) · f_i^{n_i} / OS.
//
// The killing bound is non-increasing in n′ and never drops below this
// limit, so no adaptation profile meets a requirement at or below it: the
// per-task line 4 of FTSPerTask fails fast on that, and the uniform kill
// probe (AdaptationCache.MeetsLO) refuses such a requirement whatever the
// exact kernel's last bits say.
func (c Config) KillingPFHLOLimit(loTasks []task.Task, ns []int) float64 {
	return c.killingPFHLOLimit(loTasks, ns, 0)
}

// killingPFHLOLimit evaluates the no-kill limit with per-task LO profiles
// ns, or the uniform profile n for every LO task when ns is nil.
func (c Config) killingPFHLOLimit(loTasks []task.Task, ns []int, n int) float64 {
	if ns != nil && len(ns) != len(loTasks) {
		panic(fmt.Sprintf("safety: %d profiles for %d LO tasks", len(ns), len(loTasks)))
	}
	t := c.Horizon()
	var sum prob.KahanSum
	var pow runMemo
	for i, lo := range loTasks {
		if ns != nil {
			n = ns[i]
		}
		r := c.Rounds(lo, n, t)
		sum.Add(float64(r) * pow.pow(lo.FailProb, n))
	}
	return sum.Value() / float64(c.OperationHours)
}

// KillingPFHLOUniform is KillingPFHLO with a uniform LO re-execution
// profile n_LO, evaluated without materializing the profile slice.
func (c Config) KillingPFHLOUniform(loTasks []task.Task, nLO int, adapt *Adaptation) float64 {
	return c.killingPFHLOFast(loTasks, nil, nLO, adapt, nil)
}
