package mcsched

import (
	"math"
	"slices"

	"repro/internal/criticality"
	"repro/internal/timeunit"
)

// DBFTune is an EDF-based dual-criticality schedulability test with
// per-task virtual deadline tuning, in the style of Ekberg & Yi
// (ECRTS 2012), reference [9] of the paper. It applies to killing-based
// systems (LO tasks stop at the mode switch).
//
// Each HI task gets a tuned virtual relative deadline D^LO ∈
// [C(LO), D − C(HI)]; in LO mode EDF runs HI jobs against D^LO and the
// schedulability condition is the processor-demand criterion with those
// deadlines. After a switch at t*, every pending HI job has real deadline
// at least t* + off with off = D − D^LO (its virtual deadline had not
// expired), so HI-mode demand in a window of length ℓ is bounded by
//
//	dbf_HI(ℓ) = max(0, ⌊(ℓ − off)/T⌋ + 1) · C(HI),
//
// and HI-mode feasibility is again a demand criterion. This is a
// CONSERVATIVE variant of Ekberg & Yi: their "done" term, which credits
// the LO-mode execution a carry-over job is guaranteed to have performed,
// is omitted — demand is only over-approximated, so acceptance remains
// sound, and the necessary condition off ≥ C(HI) (the bare carry-over job
// must fit) anchors the tuning.
//
// The offsets are driven to their least joint fixpoint: each pass
// recomputes, per HI task, the smallest off making all of that task's own
// HI-mode demand points feasible given the other tasks' current offsets.
// Offsets only grow, so the iteration terminates (or exceeds the per-task
// budget D − C(LO) ⇒ unschedulable). The final verdict is decided solely
// by the two demand checks, so tuning quality affects precision, never
// soundness.
type DBFTune struct {
	// MaxPasses caps the fixpoint iteration; 0 means 100.
	MaxPasses int
}

// Name implements Test.
func (DBFTune) Name() string { return "DBF-tune" }

// dbfPoint is the classical demand bound of a (C, D, T) task.
func dbfPoint(c, d, t timeunit.Time, at timeunit.Time) timeunit.Time {
	if at < d {
		return 0
	}
	k := (at - d).DivFloor(t) + 1
	return timeunit.Time(k) * c
}

// demandTask is one (C, D, T) entry of a processor-demand check.
type demandTask struct {
	c, d, t timeunit.Time
}

// demandFeasible checks Σ dbf(t) ≤ t at all deadline points within the
// standard bounded interval. Exact for U < 1 within demandLimit's point
// budget (beyond it, a conservative reject); for U = 1 it accepts only
// the closed-form-safe case D ≥ T for every task (then dbf(t) ≤ U·t).
func demandFeasible(tasks []demandTask) bool {
	u := 0.0
	for _, tk := range tasks {
		u += tk.c.Float() / tk.t.Float()
	}
	if u > 1 {
		return false
	}
	if u == 1 {
		for _, tk := range tasks {
			if tk.d < tk.t {
				return false
			}
		}
		return true
	}
	return demandHolds(tasks, u)
}

// demandHolds checks Σ dbf(t) ≤ t at every deadline point within the
// bounded testing interval (see demandLimit); requires U < 1. It is the
// demand check of both DBFTune and EDFWorstCase, and answers false when
// the interval holds too many points to enumerate.
func demandHolds(tasks []demandTask, u float64) bool {
	limit, ok := demandLimit(tasks, u)
	if !ok {
		return false
	}
	for _, at := range demandPoints(tasks, limit) {
		var demand timeunit.Time
		for _, tk := range tasks {
			demand += dbfPoint(tk.c, tk.d, tk.t, at)
		}
		if demand > at {
			return false
		}
	}
	return true
}

// maxDemandPoints bounds the deadlines one demand check may enumerate
// (a few MB of points). The sets the repository's experiments, examples
// and soak sweeps analyse stay below it — the 10^5-run deep soak tier
// peaks near 10^5 points — and beyond it the check answers not
// schedulable instead of enumerating.
const maxDemandPoints = 1 << 20

// demandLimit is the bounded testing interval
//
//	L = max(max_i D_i, Σ_i max(0, T_i − D_i)·U_i / (1 − U)),
//
// computed in float64. ok is false when L is not finite, does not fit
// a timeunit.Time, or holds more than maxDemandPoints deadlines
// k·T_i + D_i (counted, not enumerated). As U nears 1 the interval
// explodes — at one ulp below 1 it passes 10^18 µs — and then a
// demand check must answer not schedulable: a schedulability test may
// reject a feasible set, but it must never accept an infeasible one.
func demandLimit(tasks []demandTask, u float64) (timeunit.Time, bool) {
	var maxD timeunit.Time
	slack := 0.0
	for _, tk := range tasks {
		maxD = maxD.Max(tk.d)
		if tk.t > tk.d {
			slack += (tk.t - tk.d).Float() * tk.c.Float() / tk.t.Float()
		}
	}
	l := math.Max(maxD.Float(), math.Ceil(slack/(1-u)))
	if !(l < math.MaxInt64) { // also catches NaN and +Inf
		return 0, false
	}
	points := 0.0
	for _, tk := range tasks {
		if d := tk.d.Float(); d <= l {
			points += math.Floor((l-d)/tk.t.Float()) + 1
		}
	}
	if points > maxDemandPoints {
		return 0, false
	}
	return timeunit.Time(l), true
}

// demandPoints enumerates k·T + D ≤ limit, deduplicated and sorted.
func demandPoints(tasks []demandTask, limit timeunit.Time) []timeunit.Time {
	var points []timeunit.Time
	for _, tk := range tasks {
		for at := tk.d; at <= limit; at += tk.t {
			points = append(points, at)
		}
	}
	slices.Sort(points)
	return slices.Compact(points)
}

// Schedulable implements Test.
func (d DBFTune) Schedulable(s *MCSet) bool {
	maxPasses := d.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 100
	}
	var hi, lo []MCTask
	for _, t := range s.Tasks() {
		if t.Class == criticality.HI {
			hi = append(hi, t)
		} else {
			lo = append(lo, t)
		}
	}

	// Per-task offset budgets: off ∈ [C(HI), D − C(LO)].
	offs := make([]timeunit.Time, len(hi))
	budget := make([]timeunit.Time, len(hi))
	uHI := 0.0
	for i, t := range hi {
		offs[i] = t.CHI
		budget[i] = t.Deadline - t.CLO
		if offs[i] > budget[i] {
			return false // D < C(HI) + C(LO): no virtual deadline exists
		}
		uHI += t.CHI.Float() / t.Period.Float()
	}
	if uHI > 1 {
		return false
	}

	// Joint fixpoint: grow each offset to the least value making the
	// task's own demand points feasible given the others.
	if len(hi) > 0 {
		for pass := 0; pass < maxPasses; pass++ {
			changed := false
			for i := range hi {
				next, ok := d.leastOffset(hi, offs, i, uHI)
				if !ok {
					return false
				}
				if next > budget[i] {
					return false
				}
				if next > offs[i] {
					offs[i] = next
					changed = true
				}
			}
			if !changed {
				break
			}
			if pass == maxPasses-1 {
				return false // did not converge: conservative reject
			}
		}
	}

	// Final sound checks. HI mode: carry-over demand with the tuned
	// offsets.
	hiTasks := make([]demandTask, len(hi))
	for i, t := range hi {
		hiTasks[i] = demandTask{c: t.CHI, d: offs[i], t: t.Period}
	}
	if len(hi) > 0 && !demandFeasible(hiTasks) {
		return false
	}
	// LO mode: everyone at C(LO); HI tasks against D^LO = D − off.
	loTasks := make([]demandTask, 0, len(hi)+len(lo))
	for i, t := range hi {
		loTasks = append(loTasks, demandTask{c: t.CLO, d: t.Deadline - offs[i], t: t.Period})
	}
	for _, t := range lo {
		loTasks = append(loTasks, demandTask{c: t.CLO, d: t.Deadline, t: t.Period})
	}
	return demandFeasible(loTasks)
}

// VirtualDeadlines returns the tuned per-task virtual relative deadlines
// D^LO for the HI tasks (in set order), or ok = false if the set is not
// schedulable under this test. The runtime uses these as the LO-mode EDF
// deadlines of the HI tasks.
func (d DBFTune) VirtualDeadlines(s *MCSet) (map[string]timeunit.Time, bool) {
	// Re-run the tuning, capturing the offsets. Schedulable is cheap for
	// the set sizes at hand; keeping one code path avoids drift.
	if !d.Schedulable(s) {
		return nil, false
	}
	maxPasses := d.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 100
	}
	var hi []MCTask
	for _, t := range s.Tasks() {
		if t.Class == criticality.HI {
			hi = append(hi, t)
		}
	}
	offs := make([]timeunit.Time, len(hi))
	uHI := 0.0
	for i, t := range hi {
		offs[i] = t.CHI
		uHI += t.CHI.Float() / t.Period.Float()
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for i := range hi {
			next, ok := d.leastOffset(hi, offs, i, uHI)
			if ok && next > offs[i] {
				offs[i] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make(map[string]timeunit.Time, len(hi))
	for i, t := range hi {
		out[t.Name] = t.Deadline - offs[i]
	}
	return out, true
}

// leastOffset computes the smallest offset ≥ the current one that makes
// every HI-mode demand point of task i feasible given the other tasks'
// offsets:
//
//	off ≥ max_m [ (m+1)·C_i(HI) + Σ_{j≠i} dbf_j(off + m·T_i) − m·T_i ].
//
// The right-hand side is non-decreasing in off, so iterating to the least
// fixpoint is exact; values move between discrete demand levels, so the
// iteration takes at most a few steps per level. ok = false signals
// divergence past the testing bound.
func (d DBFTune) leastOffset(hi []MCTask, offs []timeunit.Time, i int, uHI float64) (timeunit.Time, bool) {
	off := offs[i]
	ti := hi[i].Period
	ci := hi[i].CHI
	for iter := 0; iter < 1000; iter++ {
		// Testing bound with the candidate offsets.
		tasks := make([]demandTask, len(hi))
		for j, t := range hi {
			dj := offs[j]
			if j == i {
				dj = off
			}
			tasks[j] = demandTask{c: t.CHI, d: dj, t: t.Period}
		}
		var limit timeunit.Time
		if uHI < 1 {
			var ok bool
			if limit, ok = demandLimit(tasks, uHI); !ok {
				return 0, false // interval too long to check: conservative reject
			}
		} else {
			limit = off // U = 1: only the carry point matters; final check arbitrates
		}
		need := off
		for m := int64(0); ; m++ {
			at := off + timeunit.Time(m)*ti
			if m > 0 && at > limit {
				break
			}
			var others timeunit.Time
			for j, t := range hi {
				if j == i {
					continue
				}
				others += dbfPoint(t.CHI, offs[j], t.Period, at)
			}
			required := timeunit.Time(m+1)*ci + others - timeunit.Time(m)*ti
			need = need.Max(required)
		}
		if need <= off {
			return off, true
		}
		off = need
		if off > timeunit.Hours(24) {
			return 0, false // runaway: conservative reject
		}
	}
	return 0, false
}
