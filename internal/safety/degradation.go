package safety

import (
	"fmt"

	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Omega implements eq. (6) of Lemma 3.4: the total failure rate of the LO
// tasks over [0, t] when their inter-arrival times are stretched by df,
//
//	ω(df, t) = Σ_{τ_i∈τ_LO} max(⌊(t − n_i·C_i)/(df·T_i)⌋ + 1, 0) · f_i^{n_i}.
//
// ω(1, t) is the undegraded failure count; degradation (df > 1) fits fewer
// rounds into the window, so ω decreases with df.
func (c Config) Omega(loTasks []task.Task, ns []int, df float64, t timeunit.Time) float64 {
	return c.omegaSum(loTasks, ns, 0, df, t)
}

// omegaSum evaluates eq. (6) with per-task LO profiles ns, or the uniform
// profile n for every LO task when ns is nil.
func (c Config) omegaSum(loTasks []task.Task, ns []int, n int, df float64, t timeunit.Time) float64 {
	if ns != nil && len(ns) != len(loTasks) {
		panic(fmt.Sprintf("safety: %d profiles for %d LO tasks", len(ns), len(loTasks)))
	}
	var sum prob.KahanSum
	for i, lo := range loTasks {
		if ns != nil {
			n = ns[i]
		}
		r := c.RoundsStretched(lo, n, df, t)
		sum.Add(float64(r) * prob.Pow(lo.FailProb, n))
	}
	return sum.Value()
}

// DegradationPFHLO implements eq. (7) of Lemma 3.4: the PFH of the LO
// criticality level when service degradation (not killing) is triggered by
// HI overruns,
//
//	pfh(LO) = (1 − R(N′_HI, t)) · ω(1, t) / OS,  t = OS hours.
//
// The bound is the worst case of eq. (9) over the degradation trigger time
// t′, attained at t′ = t. Degraded LO tasks keep delivering (reduced)
// service, so — unlike killing — only rounds that additionally fail all
// n_i attempts count as failures; pfh(LO) here is never worse than the
// plain bound of eq. (2).
func (c Config) DegradationPFHLO(loTasks []task.Task, ns []int, adapt *Adaptation, df float64) float64 {
	return c.degradationPFHLO(loTasks, ns, 0, adapt, df)
}

// DegradationPFHLOUniform is DegradationPFHLO with a uniform LO
// re-execution profile n_LO.
func (c Config) DegradationPFHLOUniform(loTasks []task.Task, nLO int, adapt *Adaptation, df float64) float64 {
	return c.degradationPFHLO(loTasks, nil, nLO, adapt, df)
}

// degradationPFHLO evaluates eq. (7) with per-task LO profiles ns, or the
// uniform profile n for every LO task when ns is nil.
func (c Config) degradationPFHLO(loTasks []task.Task, ns []int, n int, adapt *Adaptation, df float64) float64 {
	if df <= 1 {
		panic(fmt.Sprintf("safety: degradation factor must be > 1, got %g", df))
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	t := c.Horizon()
	return adapt.AdaptProb(t) * c.omegaSum(loTasks, ns, n, 1, t) / float64(c.OperationHours)
}
