package mcsched

import (
	"math"

	"repro/internal/criticality"
)

// EDFVD is the EDF with Virtual Deadlines schedulability test of Baruah et
// al. (ECRTS 2012), reference [3] of the paper, for implicit-deadline
// dual-criticality systems with LO-task killing. The set is schedulable if
//
//	max{ U_HI^LO + U_LO^LO,  U_HI^HI + x·U_LO^LO } ≤ 1,
//	x = U_HI^LO / (1 − U_LO^LO)                         (eq. 10)
//
// where x is also the virtual-deadline shrink factor the runtime applies
// to HI tasks in LO mode.
type EDFVD struct{}

// Name implements Test.
func (EDFVD) Name() string { return "EDF-VD" }

// Factor returns x = U_HI^LO / (1 − U_LO^LO), the virtual deadline factor.
// It returns +Inf when U_LO^LO ≥ 1 (the LO tasks alone overload the
// processor; no factor can help).
func (EDFVD) Factor(s *MCSet) float64 {
	uLOLO := s.Util(criticality.LO, criticality.LO)
	if uLOLO >= 1 {
		return math.Inf(1)
	}
	return s.Util(criticality.HI, criticality.LO) / (1 - uLOLO)
}

// Bound returns the left-hand side of eq. (10) in float64; the set
// passes when the exact value is ≤ 1. This is the "mixed-criticality
// system utilization" UMC the FMS experiment (Fig. 1) plots.
func (v EDFVD) Bound(s *MCSet) float64 {
	return eq10(s.Util(criticality.HI, criticality.LO), s.Util(criticality.LO, criticality.LO),
		s.Util(criticality.HI, criticality.HI))
}

// Schedulable implements Test via eq. (10). The float64 bound decides
// when it clears 1 by more than its rounding error — eq10 evaluated at
// both corners of the utilization sums' error boxes, widened by its own
// few roundings; inside that band the exact rational test decides.
func (v EDFVD) Schedulable(s *MCSet) bool {
	a := s.Util(criticality.HI, criticality.LO)
	b := s.Util(criticality.LO, criticality.LO)
	c := s.Util(criticality.HI, criticality.HI)
	e := utilErr(len(s.tasks))
	switch {
	case eq10(a*(1+e), b*(1+e), c*(1+e))*(1+8*unitRoundoff) <= 1:
		return true
	case eq10(a*(1-e), b*(1-e), c*(1-e))*(1-8*unitRoundoff) > 1:
		return false
	}
	return eq10Exact(s)
}
