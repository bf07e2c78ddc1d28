package core

import (
	"fmt"
	"math"

	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// This file relaxes the §4.2 simplification that all tasks of a
// criticality level share one re-execution profile. The safety lemmas are
// stated per task, so nothing in the analysis requires uniformity — a
// per-task assignment can meet the same PFH requirement with strictly
// less utilization by giving high-rate (short-period) tasks more attempts
// and low-rate tasks fewer. FT-S then runs unchanged on the per-task
// conversion.

// OptimizeReexecProfiles assigns each task in the group the smallest
// re-execution profile such that the group's eq. (2) bound meets the
// requirement, greedily minimizing the added utilization: starting from
// n_i = 1 everywhere, it repeatedly grants one extra attempt to the task
// with the largest PFH reduction per unit of added utilization (ties to
// the lower index). The result is feasible by construction; optimality is
// heuristic (the problem is knapsack-like), and on the evaluated
// workloads the greedy assignment never costs more utilization than the
// uniform profile.
//
// An +Inf requirement returns all ones. The error mirrors
// MinReexecProfile: no assignment within safety.MaxProfile attempts.
func OptimizeReexecProfiles(cfg safety.Config, tasks []task.Task, requirement float64) ([]int, error) {
	var ns []int
	for range tasks {
		ns = append(ns, 1)
	}
	if len(tasks) == 0 || math.IsInf(requirement, 1) {
		return ns, nil
	}
	hour := timeunit.Hours(1)
	contrib := func(i, n int) float64 {
		return float64(cfg.Rounds(tasks[i], n, hour)) * prob.Pow(tasks[i].FailProb, n)
	}
	total := 0.0
	for i := range tasks {
		total += contrib(i, 1)
	}
	for steps := 0; total > requirement; steps++ {
		if steps > safety.MaxProfile*len(tasks) {
			return nil, fmt.Errorf("core: no per-task profile assignment meets PFH requirement %g (reached %g)", requirement, total)
		}
		best, bestGain := -1, 0.0
		for i := range tasks {
			if ns[i] >= safety.MaxProfile {
				continue
			}
			drop := contrib(i, ns[i]) - contrib(i, ns[i]+1)
			if drop <= 0 {
				continue
			}
			if gain := drop / tasks[i].Utilization(); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: per-task profile search stuck at pfh %g > %g", total, requirement)
		}
		total += contrib(best, ns[best]+1) - contrib(best, ns[best])
		ns[best]++
	}
	return ns, nil
}

// ConvertPerTask is the Lemma 4.1 conversion with per-task re-execution
// profiles ns (in set order) and a uniform adaptation profile n′: HI task
// i gets C(HI) = ns[i]·C and C(LO) = min(n′, ns[i])·C; LO task i gets
// both WCETs equal to ns[i]·C.
func ConvertPerTask(s *task.Set, ns []int, nprime int) (*mcsched.MCSet, error) {
	if len(ns) != s.Len() {
		return nil, fmt.Errorf("core: %d profiles for %d tasks", len(ns), s.Len())
	}
	if nprime < 1 {
		return nil, fmt.Errorf("core: adaptation profile must be >= 1, got %d", nprime)
	}
	for i, t := range s.Tasks() {
		if ns[i] < 1 {
			return nil, fmt.Errorf("core: profile of %q must be >= 1, got %d", t.Name, ns[i])
		}
	}
	out := appendConverted(make([]mcsched.MCTask, 0, s.Len()), s, Profiles{NPrime: nprime}, ns)
	return mcsched.NewMCSet(out)
}

// PerTaskResult reports FTSPerTask.
type PerTaskResult struct {
	// OK is the combined safety + schedulability verdict.
	OK bool
	// Reason classifies failures, as in Result.
	Reason FailureReason
	// Reexec holds the per-task re-execution profiles in set order.
	Reexec []int
	// N1HI, N2HI and NPrime are as in Result (the adaptation profile
	// stays uniform over HI tasks).
	N1HI, N2HI, NPrime int
	// Converted is the per-task converted MC set on success.
	Converted *mcsched.MCSet
	// PFHHI, PFHLO are the achieved bounds on success.
	PFHHI, PFHLO float64
	// TestName records the scheduling technique S.
	TestName string
}

// UtilizationAfterReexec returns Σ ns[i]·C_i/T_i for the given set.
func UtilizationAfterReexec(s *task.Set, ns []int) float64 {
	u := 0.0
	for i, t := range s.Tasks() {
		u += float64(ns[i]) * t.Utilization()
	}
	return u
}

// FTSPerTask is Algorithm 1 with the §4.2 uniformity relaxed to per-task
// re-execution profiles (the adaptation profile n′_HI remains uniform).
// Per-task profiles typically shrink the converted utilization and with
// it the schedulability pressure; the ablation bench quantifies the gain
// over uniform FTS. The adaptation cache resolves as in FTS; the result
// is always freshly allocated (Options.Scratch is not read).
func FTSPerTask(s *task.Set, opt Options) (PerTaskResult, error) {
	if err := opt.Validate(); err != nil {
		return PerTaskResult{}, err
	}
	m := coreView.Get()
	m.perTaskCalls.Inc()
	test := opt.test()
	res := PerTaskResult{TestName: test.Name()}
	cfg := opt.Safety
	dual := s.Dual()
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	cache := opt.resolveCache(s)

	// Per-class greedy optimization replaces lines 1–3.
	nsHI, err := OptimizeReexecProfiles(cfg, hi, dual.Requirement(criticality.HI))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	nsLO, err := OptimizeReexecProfiles(cfg, lo, dual.Requirement(criticality.LO))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	// Stitch the class vectors back into set order.
	ns := make([]int, 0, s.Len())
	ih, il := 0, 0
	maxHI := 1
	for _, t := range s.Tasks() {
		var n int
		if s.Class(t) == criticality.HI {
			n = nsHI[ih]
			if n > maxHI {
				maxHI = n
			}
			ih++
		} else {
			n = nsLO[il]
			il++
		}
		ns = append(ns, n)
	}
	res.Reexec = ns

	// Line 4: minimal safe adaptation profile with the per-task LO
	// profiles. The per-task pfh(LO) values are not memoizable under the
	// uniform-keyed cache, but the per-n′ Adaptation models are.
	reqLO := dual.Requirement(criticality.LO)
	n1 := 1
	switch {
	case math.IsInf(reqLO, 1):
	case opt.Mode == safety.Kill && cfg.KillingPFHLOLimit(lo, nsLO) >= reqLO:
		n1 = 0 // killing never gets below its no-kill limit
	default:
		n1, err = safety.MinProfile(func(n int) (bool, error) {
			v, err := pfhLOPerTask(opt, cache, lo, nsLO, n)
			return v < reqLO, err
		})
	}
	if err != nil || n1 == 0 {
		res.N1HI = safety.MaxProfile + 1
		res.Reason = FailSafetyAdapt
		return res, nil
	}
	res.N1HI = n1
	if n1 > maxHI {
		res.Reason = FailSafetyAdapt
		return res, nil
	}

	// Line 8: maximal schedulable adaptation profile over [1, max n_i].
	n2, err := supSchedulable(maxHI, func(n int) (bool, error) {
		conv, err := ConvertPerTask(s, ns, n)
		if err != nil {
			return false, err
		}
		m.fullConverts.Inc()
		m.line8Probes.Inc()
		return test.Schedulable(conv), nil
	})
	if err != nil {
		return PerTaskResult{}, err
	}
	res.N2HI = n2
	if n2 == 0 || n1 > n2 {
		res.Reason = FailUnschedulable
		return res, nil
	}
	res.OK = true
	m.perTaskSuccess.Inc()
	res.NPrime = n2
	res.Converted, err = ConvertPerTask(s, ns, n2)
	if err != nil {
		return PerTaskResult{}, err
	}
	res.PFHHI = cfg.PlainPFH(hi, nsHI)
	res.PFHLO, err = pfhLOPerTask(opt, cache, lo, nsLO, n2)
	if err != nil {
		return PerTaskResult{}, err
	}
	return res, nil
}

// pfhLOPerTask evaluates the mode's pfh(LO) bound — eq. (5) for killing,
// eq. (7) for degradation — with the per-task LO profiles nsLO under the
// uniform adaptation profile n′, whose eq. (3) model the cache memoizes.
func pfhLOPerTask(opt Options, cache *safety.AdaptationCache, lo []task.Task, nsLO []int, nprime int) (float64, error) {
	adapt, err := cache.Uniform(nprime)
	if err != nil {
		return 0, err
	}
	if opt.Mode == safety.Kill {
		return opt.Safety.KillingPFHLO(lo, nsLO, adapt), nil
	}
	return opt.Safety.DegradationPFHLO(lo, nsLO, adapt, opt.DF), nil
}
