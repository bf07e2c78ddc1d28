package mcsched

import (
	"math/big"

	"repro/internal/criticality"
)

// EDFWorstCase is the non-mixed-criticality baseline: plain EDF with every
// task budgeted at its own-criticality WCET at all times (HI tasks at
// C(HI), LO tasks at C(LO)), i.e. no killing and no degradation ever. This
// is the "without task killing / service degradation" curve of Fig. 3 and
// the analysis that rejects Example 3.1 (U = 1.08595 > 1).
//
// For implicit-deadline sporadic tasks the test is the exact EDF
// condition U ≤ 1; otherwise the processor-demand criterion dbf(t) ≤ t
// is checked over the standard bounded testing interval
// (Baruah/Mok/Rosier, see demandLimit), with every task at its
// own-criticality WCET.
type EDFWorstCase struct{}

// Name implements Test.
func (EDFWorstCase) Name() string { return "EDF" }

// Utilization returns the total worst-case utilization Σ C_i(χ_i)/T_i.
func (EDFWorstCase) Utilization(s *MCSet) float64 {
	u := 0.0
	for _, t := range s.Tasks() {
		u += t.UtilizationAt(criticality.HI) // CHI = CLO for LO tasks
	}
	return u
}

// Schedulable implements Test. U is compared with 1 exactly: the float
// sum decides unless it lies within its rounding error of 1, and the
// rational sum otherwise.
func (e EDFWorstCase) Schedulable(s *MCSet) bool {
	u := e.Utilization(s)
	var cmp int // sign of U − 1
	switch tol := utilErr(len(s.tasks)); {
	case u*(1-tol) > 1:
		cmp = 1
	case u*(1+tol) < 1:
		cmp = -1
	default: // LO tasks have C(HI) = C(LO)
		exact := new(big.Rat).Add(s.utilRat(criticality.HI, criticality.HI), s.utilRat(criticality.LO, criticality.HI))
		cmp = exact.Cmp(big.NewRat(1, 1))
	}
	if cmp > 0 {
		return false
	}
	if s.AllImplicit() {
		return true
	}
	if cmp == 0 {
		// The testing interval needs U < 1; with arbitrary deadlines
		// and a fully loaded processor we answer conservatively.
		return false
	}
	tasks := make([]demandTask, 0, len(s.Tasks()))
	for _, tk := range s.Tasks() {
		tasks = append(tasks, demandTask{c: tk.CHI, d: tk.Deadline, t: tk.Period})
	}
	return demandHolds(tasks, u)
}
