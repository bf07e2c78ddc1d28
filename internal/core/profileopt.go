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
func OptimizeReexecProfiles(cfg safety.Config, tasks []task.Task, requirement float64) ([]int, error) {
	return optimizeReexecProfilesInto(nil, nil, cfg, tasks, requirement)
}

// reexecGreedy is the pooled working state of optimizeReexecProfilesInto:
// the cached eq. (2) contribution of every task's current profile (cur)
// and of its next candidate grant (next), plus the max-heap of candidate
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

// optimizeReexecProfilesInto is OptimizeReexecProfiles writing into buf
// and the greedy working state g (both grown as needed, both nilable),
// the scratch-buffer path of FTSPerTask. The grant sequence — and with it
// the returned assignment — is identical to the reference rescan
// (optimizeReexecProfilesLinear, pinned by
// TestOptimizeReexecHeapDifferential): the heap pops the same
// (gain, index) argmax the rescan selects, and the cached cur/next values
// are the same floats the rescan recomputes.
func optimizeReexecProfilesInto(buf []int, g *reexecGreedy, cfg safety.Config, tasks []task.Task, requirement float64) ([]int, error) {
	ns := buf[:0]
	for range tasks {
		ns = append(ns, 1)
	}
	if len(tasks) == 0 || math.IsInf(requirement, 1) {
		return ns, nil
	}
	if g == nil {
		g = &reexecGreedy{}
	}
	hour := timeunit.Hours(1)
	contrib := func(i, n int) float64 {
		return float64(cfg.Rounds(tasks[i], n, hour)) * prob.Pow(tasks[i].FailProb, n)
	}
	g.cur, g.next, g.heap = g.cur[:0], g.next[:0], g.heap[:0]
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

// ConvertPerTask is the Lemma 4.1 conversion with per-task re-execution
// profiles ns (in set order) and a uniform adaptation profile n′: HI task
// i gets C(HI) = ns[i]·C and C(LO) = min(n′, ns[i])·C; LO task i gets
// both WCETs equal to ns[i]·C.
func ConvertPerTask(s *task.Set, ns []int, nprime int) (*mcsched.MCSet, error) {
	out, err := appendConvertedPerTask(make([]mcsched.MCTask, 0, s.Len()), s, ns, nprime)
	if err != nil {
		return nil, err
	}
	return mcsched.NewMCSet(out)
}

// appendConvertedPerTask appends the per-task conversion of s to dst and
// returns the extended slice.
func appendConvertedPerTask(dst []mcsched.MCTask, s *task.Set, ns []int, nprime int) ([]mcsched.MCTask, error) {
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
		dst = append(dst, mt)
	}
	return dst, nil
}

// PerTaskResult reports FTSPerTask.
type PerTaskResult struct {
	// OK is the combined safety + schedulability verdict.
	OK bool
	// Reason classifies failures, as in Result.
	Reason FailureReason
	// Reexec holds the per-task re-execution profiles in set order. When
	// FTSPerTask ran with Options.Scratch it aliases scratch memory,
	// valid until the next call with the same Scratch.
	Reexec []int
	// N1HI, N2HI and NPrime are as in Result (the adaptation profile
	// stays uniform over HI tasks).
	N1HI, N2HI, NPrime int
	// Converted is the per-task converted MC set on success; nil when
	// FTSPerTask ran with Options.Scratch.
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
// over uniform FTS.
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
	scr := opt.Scratch
	cache := opt.Cache
	if cache == nil {
		if scr != nil {
			cache = scr.adaptCache(cfg, hi, lo)
		} else {
			cache = safety.NewAdaptationCache(cfg, hi, lo)
		}
	}

	// Per-class greedy optimization replaces lines 1–3, into the scratch
	// class buffers when one is supplied.
	var bufHI, bufLO []int
	var greedy *reexecGreedy
	if scr != nil {
		bufHI, bufLO = scr.nsHI, scr.nsLO
		greedy = &scr.greedy
	}
	nsHI, err := optimizeReexecProfilesInto(bufHI, greedy, cfg, hi, dual.Requirement(criticality.HI))
	if scr != nil && nsHI != nil {
		scr.nsHI = nsHI
	}
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	nsLO, err := optimizeReexecProfilesInto(bufLO, greedy, cfg, lo, dual.Requirement(criticality.LO))
	if scr != nil && nsLO != nil {
		scr.nsLO = nsLO
	}
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	// Stitch the class vectors back into set order, into the scratch
	// vector when one is supplied (PerTaskResult.Reexec then aliases
	// scratch memory, per its doc).
	var ns []int
	if scr != nil {
		ns = scr.nsAll[:0]
	}
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
	if scr != nil {
		scr.nsAll = ns
	}
	res.Reexec = ns

	// Line 4: minimal safe adaptation profile with the per-task LO
	// profiles, through the reusable eq. (5)/(7) evaluation state.
	var eval *safety.AdaptEval
	if scr != nil {
		eval = &scr.adeval
	} else {
		eval = &safety.AdaptEval{}
	}
	eval.Reset(cfg, lo, nsLO, 0)
	n1, err := minAdaptPerTask(cfg, opt, cache, eval, lo, nsLO, dual.Requirement(criticality.LO))
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

	// Line 8: maximal schedulable adaptation profile over [1, max n_i],
	// bisected with delta-patched conversions in the scratch arena when
	// one is supplied.
	n2, err := maxSchedProfilePerTask(s, scr, test, ns, maxHI)
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
	if scr == nil {
		res.Converted, err = ConvertPerTask(s, ns, n2)
		if err != nil {
			return PerTaskResult{}, err
		}
	}
	res.PFHHI = cfg.PlainPFH(hi, nsHI)
	adapt, err := cache.Uniform(n2)
	if err != nil {
		return PerTaskResult{}, err
	}
	// eval is still bound to (lo, nsLO); its bounds are the same floats
	// Config.KillingPFHLO/DegradationPFHLO produce.
	switch opt.Mode {
	case safety.Kill:
		res.PFHLO = eval.KillingPFHLO(adapt)
	case safety.Degrade:
		res.PFHLO = eval.DegradationPFHLO(adapt)
	}
	return res, nil
}

// minAdaptPerTask mirrors AdaptationCache.MinAdaptProfile with per-task
// LO re-execution profiles: the same gallop + bisection over the monotone
// pfh(LO), evaluated through eval (which the caller has bound to
// (lo, nsLO)) so each candidate pays only the adaptation-model delta. The
// per-task pfh(LO) values are not memoizable under the uniform-keyed
// cache, but the per-n′ Adaptation models are. The linear reference is
// minAdaptPerTaskLinear, pinned by TestMinAdaptPerTaskBisectionDifferential.
func minAdaptPerTask(cfg safety.Config, opt Options, cache *safety.AdaptationCache, eval *safety.AdaptEval, lo []task.Task, nsLO []int, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	if opt.Mode == safety.Kill {
		if limit := cfg.KillingPFHLOLimit(lo, nsLO); limit >= requirement {
			return 0, fmt.Errorf("core: killing cannot keep pfh(LO) below %g (limit %g)", requirement, limit)
		}
	}
	pfh := func(n int) (float64, error) {
		adapt, err := cache.Uniform(n)
		if err != nil {
			return 0, err
		}
		if opt.Mode == safety.Kill {
			return eval.KillingPFHLO(adapt), nil
		}
		return eval.DegradationPFHLO(adapt), nil
	}
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
// bisected sup of {n ∈ [1, maxHI] : Γ(ns, n) schedulable}, delta-patching
// the scratch arena between probes as maxSchedProfile does. The linear
// reference is maxSchedProfilePerTaskLinear.
func maxSchedProfilePerTask(s *task.Set, scr *Scratch, test mcsched.Test, ns []int, maxHI int) (int, error) {
	m := coreView.Get()
	conv, err := scr.convertPerTask(s, ns, maxHI)
	if err != nil {
		return 0, err
	}
	m.fullConverts.Inc()
	m.line8Probes.Inc()
	if test.Schedulable(conv) {
		return maxHI, nil
	}
	lo, hi := 0, maxHI
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if scr != nil {
			conv = scr.patchNPrimePerTask(s, ns, mid)
			m.deltaPatches.Inc()
		} else {
			conv, err = ConvertPerTask(s, ns, mid)
			if err != nil {
				return 0, err
			}
			m.fullConverts.Inc()
		}
		m.line8Probes.Inc()
		if test.Schedulable(conv) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
