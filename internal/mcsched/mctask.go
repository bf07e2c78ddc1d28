// Package mcsched implements conventional (Vestal-model) mixed-criticality
// scheduling on a uniprocessor, the substrate the paper converts its
// fault-tolerant problem onto (§2.2, §4, Appendix B).
//
// A dual-criticality MC task has a LO-criticality WCET C(LO) and a
// HI-criticality WCET C(HI) with C(LO) ≤ C(HI). At runtime the system
// starts in LO mode; when any job executes beyond its C(LO) the system
// switches to HI mode, after which only HI tasks are guaranteed (LO tasks
// are killed or degraded, depending on the scheduling technique).
//
// The package provides the schedulability tests used by the paper —
// EDF-VD (eq. 10) and EDF-VD with service degradation (eq. 12) — plus
// plain EDF, deadline-monotonic response-time analysis, SMC and AMC-rtb
// fixed-priority analyses, demonstrating the paper's remark (B.0.3) that
// arbitrary scheduling techniques integrate with FT-S.
package mcsched

import (
	"fmt"

	"repro/internal/criticality"
	"repro/internal/timeunit"
)

// MCTask is one task in the Vestal dual-criticality model.
type MCTask struct {
	// Name identifies the task in reports.
	Name string
	// Period is the minimal inter-arrival time T.
	Period timeunit.Time
	// Deadline is the relative deadline D.
	Deadline timeunit.Time
	// CLO is the LO-criticality WCET C(LO).
	CLO timeunit.Time
	// CHI is the HI-criticality WCET C(HI). For LO tasks CHI equals CLO
	// (a LO job is never allowed to run past C(LO)).
	CHI timeunit.Time
	// Class is the task's role: HI or LO.
	Class criticality.Class
}

// Validate checks the Vestal-model invariants.
func (t MCTask) Validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("mcsched: task %q: period %v must be positive", t.Name, t.Period)
	}
	if t.Deadline <= 0 {
		return fmt.Errorf("mcsched: task %q: deadline %v must be positive", t.Name, t.Deadline)
	}
	if t.CLO <= 0 {
		return fmt.Errorf("mcsched: task %q: C(LO) %v must be positive", t.Name, t.CLO)
	}
	if t.CHI < t.CLO {
		return fmt.Errorf("mcsched: task %q: C(HI) %v < C(LO) %v", t.Name, t.CHI, t.CLO)
	}
	if t.Class == criticality.LO && t.CHI != t.CLO {
		return fmt.Errorf("mcsched: LO task %q: C(HI) %v must equal C(LO) %v", t.Name, t.CHI, t.CLO)
	}
	return nil
}

// C returns the WCET the task is budgeted at the given criticality role:
// C(LO) in LO mode, C(HI) in HI mode.
func (t MCTask) C(mode criticality.Class) timeunit.Time {
	if mode == criticality.HI {
		return t.CHI
	}
	return t.CLO
}

// UtilizationAt is C(mode)/T.
func (t MCTask) UtilizationAt(mode criticality.Class) float64 {
	return t.C(mode).Float() / t.Period.Float()
}

// Implicit reports whether D = T.
func (t MCTask) Implicit() bool { return t.Deadline == t.Period }

// String renders the task like Table 3, e.g. "τ1(HI T/D=60ms C(HI)=15ms C(LO)=10ms)".
func (t MCTask) String() string {
	return fmt.Sprintf("%s(%v T=%v D=%v C(HI)=%v C(LO)=%v)",
		t.Name, t.Class, t.Period, t.Deadline, t.CHI, t.CLO)
}

// MCSet is a dual-criticality MC task set.
type MCSet struct {
	tasks []MCTask
	// u caches the four class-pair utilization sums U_{χ1}^{χ2} so the
	// EDF-VD tests read them in O(1). Recomputed by Reset and maintained
	// by RefreshUtil/RefreshUtilAt when the caller mutates the aliased
	// task slice (the delta-patch path of core.Scratch). Indexed
	// [class][mode] with criticality.LO = 0, criticality.HI = 1.
	u [2][2]float64
}

// NewMCSet validates the tasks and builds a set.
func NewMCSet(tasks []MCTask) (*MCSet, error) {
	var s MCSet
	if err := s.Reset(tasks); err != nil {
		return nil, err
	}
	s.tasks = append([]MCTask(nil), tasks...)
	return &s, nil
}

// Reset reinitializes the set in place from tasks, validating exactly as
// NewMCSet but WITHOUT copying: the set aliases the slice until the next
// Reset (and fills in empty names in place). It is the allocation-free
// construction path used by core.Scratch to rebuild the converted set
// Γ(n_HI, n_LO, n′) once per candidate adaptation profile.
func (s *MCSet) Reset(tasks []MCTask) error {
	if len(tasks) == 0 {
		return fmt.Errorf("mcsched: empty task set")
	}
	for i := range tasks {
		if tasks[i].Name == "" {
			tasks[i].Name = fmt.Sprintf("τ%d", i+1)
		}
		if err := tasks[i].Validate(); err != nil {
			return err
		}
	}
	s.tasks = tasks
	s.RefreshUtil()
	return nil
}

// RefreshUtil recomputes every cached class-pair utilization sum from the
// task slice. Reset calls it; callers that mutate the aliased slice after
// Reset (permitted by the Reset contract) must call it — or the targeted
// RefreshUtilAt — before the next schedulability test, or Util returns
// stale sums. It fills the four sums in one pass over the tasks; each
// still accumulates its terms in task order, so the bits equal
// RefreshUtilAt's.
func (s *MCSet) RefreshUtil() {
	s.u = [2][2]float64{}
	for _, t := range s.tasks {
		if t.Class != criticality.LO && t.Class != criticality.HI {
			continue
		}
		u := &s.u[t.Class]
		u[criticality.LO] += t.UtilizationAt(criticality.LO)
		u[criticality.HI] += t.UtilizationAt(criticality.HI)
	}
}

// RefreshUtilAt recomputes the single cached sum U_{class}^{mode}, the
// minimal maintenance after a mutation that only touches one class-pair —
// core.Scratch patches only the HI tasks' C(LO) between candidate
// adaptation profiles, so only U_HI^LO needs refreshing. The sum is
// re-accumulated in task order, exactly as Reset computes it, so a
// patched set and a freshly built one agree bit for bit.
func (s *MCSet) RefreshUtilAt(class, mode criticality.Class) {
	u := 0.0
	for _, t := range s.tasks {
		if t.Class == class {
			u += t.UtilizationAt(mode)
		}
	}
	s.u[class][mode] = u
}

// MustNewMCSet is NewMCSet panicking on error, for tests and literals.
func MustNewMCSet(tasks []MCTask) *MCSet {
	s, err := NewMCSet(tasks)
	if err != nil {
		panic(err)
	}
	return s
}

// Tasks returns the tasks in input order. Callers must not mutate the
// returned slice.
func (s *MCSet) Tasks() []MCTask { return s.tasks }

// Len returns the number of tasks.
func (s *MCSet) Len() int { return len(s.tasks) }

// ByClass returns the tasks of one role, in input order.
func (s *MCSet) ByClass(c criticality.Class) []MCTask {
	var out []MCTask
	for _, t := range s.tasks {
		if t.Class == c {
			out = append(out, t)
		}
	}
	return out
}

// Util returns U_{χ1}^{χ2} = Σ_{τ_i of class χ1} C_i(χ2)/T_i, the
// class-pair utilizations of the EDF-VD analysis (Appendix B), served
// from the cached sums (see Reset/RefreshUtil).
func (s *MCSet) Util(class, mode criticality.Class) float64 {
	return s.u[class][mode]
}

// AllImplicit reports whether every task has D = T. The EDF-VD tests
// (eqs. 10 and 12) are stated for implicit-deadline systems.
func (s *MCSet) AllImplicit() bool {
	for _, t := range s.tasks {
		if !t.Implicit() {
			return false
		}
	}
	return true
}

// String renders a short summary.
func (s *MCSet) String() string {
	return fmt.Sprintf("%d MC tasks (U_HI^HI=%.3f U_HI^LO=%.3f U_LO^LO=%.3f)",
		len(s.tasks),
		s.Util(criticality.HI, criticality.HI),
		s.Util(criticality.HI, criticality.LO),
		s.Util(criticality.LO, criticality.LO))
}

// Test is a schedulability test for dual-criticality MC task sets — the
// pluggable S of Algorithm 1. Implementations must be monotone in the
// sense of Theorem 4.1: shrinking any C(LO) or C(HI) preserves a positive
// verdict.
type Test interface {
	// Name identifies the test in reports, e.g. "EDF-VD".
	Name() string
	// Schedulable reports whether the set passes the test.
	Schedulable(s *MCSet) bool
}
