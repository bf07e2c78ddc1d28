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
// with the largest PFH reduction per unit of added utilization. The
// result is feasible by construction; optimality is heuristic (the
// problem is knapsack-like), and on the evaluated workloads the greedy
// assignment never costs more utilization than the uniform profile.
//
// An +Inf requirement returns all ones. The error mirrors
// MinReexecProfile: no assignment within safety.MaxProfile attempts.
//
// The grant sequence — and with it the returned assignment — is
// identical to the reference rescan (optimizeReexecProfilesLinear,
// pinned by TestOptimizeReexecHeapDifferential): the heap pops the same
// (gain, index) argmax the rescan selects, and the cached cur/next
// values are the same floats the rescan recomputes.
func OptimizeReexecProfiles(cfg safety.Config, tasks []task.Task, requirement float64) ([]int, error) {
	var ns []int
	for range tasks {
		ns = append(ns, 1)
	}
	if len(tasks) == 0 || math.IsInf(requirement, 1) {
		return ns, nil
	}
	var g reexecGreedy
	hour := timeunit.Hours(1)
	contrib := func(i, n int) float64 {
		return float64(cfg.Rounds(tasks[i], n, hour)) * prob.Pow(tasks[i].FailProb, n)
	}
	total := 0.0
	for i := range tasks {
		c := contrib(i, 1)
		total += c
		g.cur = append(g.cur, c)
		g.next = append(g.next, contrib(i, 2))
	}
	// A task whose drop is ≤ 0 never enters the heap: its contribution
	// only changes when granted, so it stays ineligible — as in the
	// reference scan.
	for i := range tasks {
		if drop := g.cur[i] - g.next[i]; drop > 0 {
			g.push(gainEntry{gain: drop / tasks[i].Utilization(), idx: i})
		}
	}
	for steps := 0; total > requirement; steps++ {
		if steps > safety.MaxProfile*len(tasks) {
			return nil, fmt.Errorf("core: no per-task profile assignment meets PFH requirement %g (reached %g)", requirement, total)
		}
		if len(g.heap) == 0 {
			return nil, fmt.Errorf("core: per-task profile search stuck at pfh %g > %g", total, requirement)
		}
		best := g.pop().idx
		total += g.next[best] - g.cur[best]
		ns[best]++
		g.cur[best] = g.next[best]
		if ns[best] < safety.MaxProfile {
			g.next[best] = contrib(best, ns[best]+1)
			if drop := g.cur[best] - g.next[best]; drop > 0 {
				g.push(gainEntry{gain: drop / tasks[best].Utilization(), idx: best})
			}
		}
	}
	return ns, nil
}

// reexecGreedy is the working state of OptimizeReexecProfiles: the
// cached eq. (2) contribution of every task's current profile (cur) and
// of its next candidate grant (next), plus the max-heap of candidate
// grants keyed on gain. Caching cur/next removes the double contrib
// evaluation per candidate per step of the reference scan, and the heap
// replaces its O(tasks) rescan per grant with O(log tasks) — only the
// granted task's gain changes between steps.
type reexecGreedy struct {
	cur, next []float64
	heap      []gainEntry
}

// gainEntry is one heap candidate: granting task idx one more attempt
// yields a PFH drop of gain per unit of added utilization.
type gainEntry struct {
	gain float64
	idx  int
}

// gainBefore orders the heap: larger gain first, ties by smaller index —
// exactly the argmax the reference scan's strict `>` comparison picks, so
// the heap path selects bit-identical grant sequences.
func gainBefore(a, b gainEntry) bool {
	return a.gain > b.gain || (a.gain == b.gain && a.idx < b.idx)
}

func (g *reexecGreedy) push(e gainEntry) {
	g.heap = append(g.heap, e)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !gainBefore(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *reexecGreedy) pop() gainEntry {
	top := g.heap[0]
	n := len(g.heap) - 1
	g.heap[0] = g.heap[n]
	g.heap = g.heap[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && gainBefore(g.heap[l], g.heap[best]) {
			best = l
		}
		if r < n && gainBefore(g.heap[r], g.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		g.heap[i], g.heap[best] = g.heap[best], g.heap[i]
		i = best
	}
	return top
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
	out := make([]mcsched.MCTask, 0, s.Len())
	for i, t := range s.Tasks() {
		if ns[i] < 1 {
			return nil, fmt.Errorf("core: profile of %q must be >= 1, got %d", t.Name, ns[i])
		}
		mt := mcsched.MCTask{
			Name:     t.Name,
			Period:   t.Period,
			Deadline: t.Deadline,
			Class:    s.Class(t),
		}
		if mt.Class == criticality.HI {
			np := nprime
			if np > ns[i] {
				np = ns[i]
			}
			mt.CHI = t.RoundLength(ns[i])
			mt.CLO = t.RoundLength(np)
		} else {
			mt.CHI = t.RoundLength(ns[i])
			mt.CLO = mt.CHI
		}
		out = append(out, mt)
	}
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
	// profiles.
	n1, err := minAdaptPerTask(opt, cache, lo, nsLO, dual.Requirement(criticality.LO))
	if err != nil {
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
	n2, err := maxSchedProfilePerTask(s, test, ns, maxHI)
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

// minAdaptPerTask mirrors AdaptationCache.MinAdaptProfile with per-task
// LO re-execution profiles: the same gallop + bisection over the monotone
// pfh(LO). The per-task pfh(LO) values are not memoizable under the
// uniform-keyed cache, but the per-n′ Adaptation models are. The linear
// reference is minAdaptPerTaskLinear, pinned by
// TestFTSPerTaskBisectionDifferential.
func minAdaptPerTask(opt Options, cache *safety.AdaptationCache, lo []task.Task, nsLO []int, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	if opt.Mode == safety.Kill {
		if limit := opt.Safety.KillingPFHLOLimit(lo, nsLO); limit >= requirement {
			return 0, fmt.Errorf("core: killing cannot keep pfh(LO) below %g (limit %g)", requirement, limit)
		}
	}
	pfh := func(n int) (float64, error) { return pfhLOPerTask(opt, cache, lo, nsLO, n) }
	// Gallop then bisect (lo, hi]: pfh is non-increasing in n′.
	lower, upper := 0, 1
	for {
		if upper > safety.MaxProfile {
			upper = safety.MaxProfile
		}
		v, err := pfh(upper)
		if err != nil {
			return 0, err
		}
		if v < requirement {
			break
		}
		if upper == safety.MaxProfile {
			return 0, fmt.Errorf("core: no adaptation profile keeps pfh(LO) below %g", requirement)
		}
		lower, upper = upper, upper*2
	}
	for upper-lower > 1 {
		mid := lower + (upper-lower)/2
		v, err := pfh(mid)
		if err != nil {
			return 0, err
		}
		if v < requirement {
			upper = mid
		} else {
			lower = mid
		}
	}
	return upper, nil
}

// maxSchedProfilePerTask is line 8 over the per-task conversion: the
// bisected sup of {n ∈ [1, maxHI] : Γ(ns, n) schedulable}, as in
// maxSchedProfile. The linear reference is maxSchedProfilePerTaskLinear.
func maxSchedProfilePerTask(s *task.Set, test mcsched.Test, ns []int, maxHI int) (int, error) {
	m := coreView.Get()
	// Probe maxHI first, then bisect (lo, hi): schedulable at lo (or
	// lo = 0, the empty-sup sentinel), not schedulable at hi.
	lo, hi := 0, maxHI+1
	for n := maxHI; hi-lo > 1; n = lo + (hi-lo)/2 {
		conv, err := ConvertPerTask(s, ns, n)
		if err != nil {
			return 0, err
		}
		m.fullConverts.Inc()
		m.line8Probes.Inc()
		if test.Schedulable(conv) {
			lo = n
		} else {
			hi = n
		}
	}
	return lo, nil
}
