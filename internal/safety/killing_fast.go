package safety

import (
	"fmt"
	"math"

	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// This file implements the boundary-merge evaluation of eq. (5).
//
// The naive evaluation visits every LO round-finish point α ∈ π_i(t) and
// recomputes logR(α) = Σ_j r_j(n′_j, α)·log(1 − f_j^{n′_j}) from scratch,
// one Rounds division per HI task per point — O(r_LO × |τ_HI|) divisions
// for ≈ 36 000 points per LO task on the FMS workload (DESIGN.md §3).
//
// The α points of one LO task form a decreasing arithmetic progression
// (step T), and each HI round count r_j(n′_j, α) = ⌊(α − n′_j·C_j)/T_j⌋+1
// is a non-decreasing staircase in α whose breakpoints are exactly
// n′_j·C_j + k·T_j. Sweeping α downward therefore only ever *decreases*
// every r_j, and the per-step drop d_j ∈ {⌊T/T_j⌋, ⌈T/T_j⌉} is determined
// by the phase φ_j = (α − n′_j·C_j) mod T_j, which follows a pure
// subtract-and-wrap recurrence — no division per step. The kernel keeps
// the running sum S = Σ_j r_j·logTerm_j incrementally (integer round
// counts exact, float sum Kahan-compensated): O(r_LO + Σ_j r_j)
// integer arithmetic with one cheap transcendental per α point
// (prob.OneMinusExpFast).
//
// Because the phase recurrence of staircase j cycles with period
// P_j = T_j / gcd(T, T_j) steps, the combined per-step ΔS sequence is
// periodic with P = lcm_j P_j. When P is small — any task set whose
// periods share a coarse time grid, e.g. the FMS table (P = 40) — the
// kernel precomputes the P ΔS values once. The periodicity buys more
// than a table lookup: across consecutive cycles the running logR at a
// fixed pattern position p grows by the constant per-cycle total
// D = Σ_p ΔS_p > 0, so the C_p per-point terms of position p form
//
//	Σ_{c=0}^{C_p−1} (1 − e^{y_p − c·D}) = g(D, C_p) + (1 − e^{y_p})·G(D, C_p)
//
// with y_p the position's final-cycle argument, G(D, C) = Σ_c e^{−cD}
// the geometric kernel and g(D, C) = C − G(D, C) its complement — both
// closed forms (geomFactors below). The whole patterned region therefore
// costs O(P) transcendentals instead of O(r): the FMS sweep (P = 40,
// r ≈ 1e5 points per LO task) collapses by three orders of magnitude.
// Incommensurate (e.g. µs-random) periods fall back to the
// per-staircase recurrence, still division-free.
//
// All staircase positions are exact integer microseconds, so the merged
// round counts match Config.Rounds bit for bit; the only float departures
// from the naive path are the order of Kahan accumulation and the
// polynomial fast path of prob.OneMinusExpFast, both bounded well under
// the guaranteed 1e-12 relative agreement (TestKillingKernelDifferential).

// hiStair tracks one HI task's round-count staircase during the downward
// α sweep of one LO task.
type hiStair struct {
	r       int64 // current round count r_j(n′_j, α)
	phi     int64 // (α − n′_j·C_j) mod T_j at the current point
	rem     int64 // T mod T_j: per-step phase decrement
	base    int64 // T div T_j: per-step base drop of r_j
	period  int64 // T_j
	cost    int64 // n′_j·C_j (0 under footnote 1)
	logTerm float64
}

// maxPattern caps the precomputed ΔS table length; beyond it the table
// would outgrow cache (and its one-off build cost) for no benefit.
const maxPattern = 1024

// kernelScratch holds the reusable buffers of the boundary-merge kernel.
// One scratch serves one kernel call at a time (callers synchronize; the
// AdaptationCache threads its own under its mutex). The zero value is
// ready to use; a nil *kernelScratch makes the kernel fall back to
// transient per-call buffers.
type kernelScratch struct {
	stairs []hiStair
	dS     []float64 // buildPattern ΔS table
	phis   []int64   // buildPattern phase scratch
}

// killingPFHLOFast evaluates eq. (5) with the boundary-merge kernel.
// ns gives per-task LO re-execution profiles; a nil ns means the uniform
// profile `uniform` for every LO task (the §4.2 restriction), evaluated
// without materializing the slice. scr may be nil.
func (c Config) killingPFHLOFast(loTasks []task.Task, ns []int, uniform int, adapt *Adaptation, scr *kernelScratch) float64 {
	if ns != nil && len(ns) != len(loTasks) {
		panic(fmt.Sprintf("safety: %d profiles for %d LO tasks", len(ns), len(loTasks)))
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if scr == nil {
		scr = &kernelScratch{stairs: make([]hiStair, 0, len(adapt.hi))}
	}
	t := c.Horizon()
	logRt := adapt.logR(t) // the ∪{t} member, shared by every LO task
	var sum prob.KahanSum
	var log1mPow runMemo
	for i, lo := range loTasks {
		n := uniform
		if ns != nil {
			n = ns[i]
		}
		r := c.Rounds(lo, n, t)
		if r == 0 {
			continue
		}
		log1mq := 0.0
		if f := lo.FailProb; f > 0 {
			log1mq = log1mPow.log1mPow(f, n)
		}
		sum.Add(prob.OneMinusExp(logRt + log1mq))
		if r > 1 {
			c.mergeTail(lo, n, r, log1mq, adapt, scr, &sum)
		}
	}
	return sum.Value() / float64(c.OperationHours)
}

// mergeTail accumulates the m = 1 .. r−1 terms of eq. (5) for one LO
// task under its re-execution profile n: α_m = t − n·C − m·T + D, swept
// in decreasing order while the HI staircases are advanced by their
// phase recurrences. The sweep builds the staircases at the first tail
// point, emits it, collapses the patterned region geometrically when
// applicable, and steps through the rest one point at a time. scr
// provides the staircase and pattern buffers.
func (c Config) mergeTail(lo task.Task, n int, r int64, log1mq float64, adapt *Adaptation, scr *kernelScratch, sum *prob.KahanSum) {
	t := c.Horizon()
	T := int64(lo.Period)
	alpha := t - c.effectiveRoundCost(lo.WCET, n) - lo.Period + lo.Deadline

	// Staircase state at the first tail point. Tasks with logTerm = 0
	// (f_j = 0) never contribute to logR; tasks with r_j = 0 here stay 0
	// as α decreases.
	stairs := scr.stairs[:0]
	var s prob.KahanSum // running Σ_j r_j·logTerm_j = logR(α)
	hiTasks, nprimes, logTerms := adapt.hi, adapt.nprime, adapt.logTerm
	for j := range hiTasks {
		if logTerms[j] == 0 {
			continue
		}
		rj := c.Rounds(hiTasks[j], nprimes[j], alpha)
		if rj == 0 {
			continue
		}
		cost := int64(c.effectiveRoundCost(hiTasks[j].WCET, nprimes[j]))
		Tj := int64(hiTasks[j].Period)
		stairs = append(stairs, hiStair{
			r: rj, phi: (int64(alpha) - cost) % Tj,
			rem: T % Tj, base: T / Tj,
			period: Tj, cost: cost, logTerm: logTerms[j],
		})
		s.Add(float64(rj) * logTerms[j])
	}
	// Keep any capacity growth for the next call (the sweep only ever
	// shrinks the local slice).
	scr.stairs = stairs

	// Emit the first tail point, then step through the rest.
	m := emitRun(sum, 1, &s, log1mq) // m = points emitted so far + 1
	if len(stairs) == 0 {
		// No staircase active: logR is constant over the whole tail.
		emitRun(sum, r-m, &s, log1mq)
		return
	}

	// Patterned fast path: precompute one period of per-step ΔS values
	// and collapse the region's cycles geometrically while every staircase
	// is guaranteed to stay ≥ 1 (α > max n′_j·C_j keeps each virtual floor
	// positive, so the drop pattern needs no clamping).
	if P, ok := patternPeriod(stairs, T); ok {
		maxCost := int64(0)
		for i := range stairs {
			if stairs[i].cost > maxCost {
				maxCost = stairs[i].cost
			}
		}
		kPat := (int64(alpha) - maxCost) / T // steps keeping α ≥ every cost
		if kPat > r-m {
			kPat = r - m
		}
		if kPat >= 2*P { // amortize the table build
			dS := buildPattern(stairs, P, scr)
			// Per-cycle logR gain D = Σ_p ΔS_p. Strictly positive: over
			// one full pattern period every staircase j drops exactly
			// P·T/T_j ≥ 1 times and each drop adds −logTerm_j > 0.
			var dSum prob.KahanSum
			for _, v := range dS {
				dSum.Add(v)
			}
			D := dSum.Value()
			// kPat steps split into Q full cycles plus rem leading
			// positions with one extra cycle each.
			Q, rem := kPat/P, kPat%P
			gQ, GQ := geomFactors(D, Q)
			gQ1, GQ1 := gQ, GQ
			if rem > 0 {
				gQ1, GQ1 = geomFactors(D, Q+1)
			}
			// Walk one pattern period: position p's first-cycle argument
			// is s + prefix(dS, p); its C_p terms collapse to
			// g(D, C_p) + (1 − e^{y_p})·G(D, C_p) with y_p the
			// final-cycle argument. All group terms are ≥ 0, so the
			// accumulated relative error stays at the geomFactors bound.
			for p := int64(0); p < P; p++ {
				s.Add(dS[p])
				C, g, G := Q, gQ, GQ
				if p < rem {
					C, g, G = Q+1, gQ1, GQ1
				}
				y := s.Value() + float64(C-1)*D + log1mq
				if y > 0 { // rounding guard; true value ≤ 0
					y = 0
				}
				sum.Add(g + prob.OneMinusExpFast(y)*G)
			}
			m += kPat
			alpha -= timeunit.Time(kPat) * lo.Period
			// Re-anchor the staircases at the current α for the tail;
			// α ≥ every cost, so each num is ≥ 0 and each r ≥ 1. The
			// running logR is re-derived exactly from the re-anchored
			// round counts, discarding any drift of the collapsed region.
			s = prob.KahanSum{}
			for i := range stairs {
				num := int64(alpha) - stairs[i].cost
				stairs[i].r = num/stairs[i].period + 1
				stairs[i].phi = num % stairs[i].period
				s.Add(float64(stairs[i].r) * stairs[i].logTerm)
			}
		}
	}

	// Division-free per-staircase sweep (the generic path, and the tail
	// of the patterned one, where staircases start hitting zero).
	for m < r {
		for idx := 0; idx < len(stairs); {
			st := &stairs[idx]
			st.phi -= st.rem
			d := st.base
			if st.phi < 0 {
				st.phi += st.period
				d++
			}
			if st.r <= d {
				// The staircase reaches (or would pass) zero: the actual
				// round count clamps at 0 and never recovers.
				s.Add(float64(-st.r) * st.logTerm)
				stairs[idx] = stairs[len(stairs)-1]
				stairs = stairs[:len(stairs)-1]
				continue
			}
			if d > 0 {
				st.r -= d
				s.Add(float64(-d) * st.logTerm)
			}
			idx++
		}
		x := s.Value() + log1mq
		if x > 0 {
			x = 0
		}
		sum.Add(prob.OneMinusExpFast(x))
		m++
		if len(stairs) == 0 {
			emitRun(sum, r-m, &s, log1mq)
			return
		}
	}
}

// emitRun adds k eq. (5) terms that share the current logR value and
// returns k+1 (the next point index when starting from m = 0).
func emitRun(sum *prob.KahanSum, k int64, s *prob.KahanSum, log1mq float64) int64 {
	if k <= 0 {
		return 1
	}
	x := s.Value() + log1mq
	if x > 0 { // Kahan residue guard; the true value is ≤ 0
		x = 0
	}
	sum.Add(float64(k) * prob.OneMinusExpFast(x))
	return k + 1
}

// patternPeriod returns P = lcm_j (T_j / gcd(T, T_j)), the period of the
// combined per-step ΔS sequence in α steps, when it stays within
// maxPattern.
func patternPeriod(stairs []hiStair, T int64) (int64, bool) {
	P := int64(1)
	for i := range stairs {
		pj := stairs[i].period / gcd64(T, stairs[i].period)
		P = P / gcd64(P, pj) * pj
		if P > maxPattern {
			return 0, false
		}
	}
	return P, true
}

// buildPattern simulates one full period of the phase recurrences and
// records the per-step ΔS = −Σ_j d_j·logTerm_j values into scr's reusable
// table. The staircase states in stairs are not modified.
func buildPattern(stairs []hiStair, P int64, scr *kernelScratch) []float64 {
	dS := scr.dS[:0]
	if int64(cap(dS)) < P {
		dS = make([]float64, 0, P)
	}
	dS = dS[:P]
	phis := scr.phis[:0]
	if cap(phis) < len(stairs) {
		phis = make([]int64, 0, len(stairs))
	}
	phis = phis[:len(stairs)]
	scr.dS, scr.phis = dS, phis
	for i := range stairs {
		phis[i] = stairs[i].phi
	}
	for p := int64(0); p < P; p++ {
		v := 0.0
		for i := range stairs {
			phis[i] -= stairs[i].rem
			d := stairs[i].base
			if phis[i] < 0 {
				phis[i] += stairs[i].period
				d++
			}
			v -= float64(d) * stairs[i].logTerm
		}
		dS[p] = v
	}
	return dS
}

// geomFactors returns the two factors of the cycle-collapsed group sum
//
//	Σ_{c=0}^{C−1} (1 − e^{y−cD}) = g(D, C) + (1 − e^{y})·G(D, C),
//
//	G(D, C) = Σ_{c=0}^{C−1} e^{−cD} = (1 − e^{−CD}) / (1 − e^{−D}),
//	g(D, C) = C − G(D, C)          = Σ_{c=0}^{C−1} (1 − e^{−cD}),
//
// for D ≥ 0, C ≥ 1, each to ≲ 1e-13 relative error. The closed form for
// g cancels catastrophically as C·D → 0 (C − G → 0 while both operands
// → C), so three regimes are used: an exact loop for tiny C, the closed
// form when (C−1)·D is large enough that its ~2ε/((C−1)D) cancellation
// error stays below 1e-13, and otherwise a five-term Taylor expansion in
// D over the Faulhaber power sums S_k = Σ_{c<C} c^k, whose truncation
// error is O((CD)⁵) ≲ 1e-15 at the 3e-3 crossover.
func geomFactors(D float64, C int64) (g, G float64) {
	fc := float64(C)
	if D <= 0 {
		return 0, fc
	}
	if C <= 16 {
		var gs, Gs prob.KahanSum
		Gs.Add(1) // c = 0: e^0
		for c := int64(1); c < C; c++ {
			e := -math.Expm1(-float64(c) * D)
			gs.Add(e)
			Gs.Add(1 - e)
		}
		return gs.Value(), Gs.Value()
	}
	if float64(C-1)*D >= 3e-3 {
		a := -math.Expm1(-D)
		b := -math.Expm1(-fc * D)
		return (fc*a - b) / a, b / a
	}
	n := fc - 1
	s1 := n * (n + 1) / 2
	s2 := n * (n + 1) * (2*n + 1) / 6
	s3 := s1 * s1
	s4 := n * (n + 1) * (2*n + 1) * (3*n*n + 3*n - 1) / 30
	s5 := n * n * (n + 1) * (n + 1) * (2*n*n + 2*n - 1) / 12
	g = D * (s1 - D*(s2/2-D*(s3/6-D*(s4/24-D*s5/120))))
	return g, fc - g
}

// gcd64 is the binary-free Euclid gcd for positive int64 values.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
