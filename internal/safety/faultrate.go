package safety

import (
	"fmt"
	"math"

	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// The paper assumes a constant per-attempt failure probability f_i
// (Example 3.1 uses 1e-5 for every task). Much of the fault-tolerance
// literature it builds on (e.g. its references [13, 14]) instead starts
// from a raw transient-fault *rate* λ — faults per unit time, a property
// of the hardware and its environment — under a Poisson arrival model.
// The two views connect through the exposure time of one execution
// attempt: an attempt of length C is hit by at least one fault with
// probability 1 − e^{−λ·C}. FaultRate performs that conversion so rate-
// specified hardware plugs directly into all of the per-probability
// analyses of this package.
type FaultRate struct {
	// PerHour is λ expressed in expected transient faults per hour of
	// exposed execution. Typical figures for commercial avionics
	// environments range around 1e-6..1e-2 faults/h depending on
	// altitude and shielding.
	PerHour float64
}

// Validate reports rate errors.
func (r FaultRate) Validate() error {
	if math.IsNaN(r.PerHour) || r.PerHour < 0 {
		return fmt.Errorf("safety: fault rate must be non-negative, got %g", r.PerHour)
	}
	return nil
}

// AttemptFailProb returns the probability that one execution attempt of
// length c is corrupted: 1 − e^{−λ·c}, computed without cancellation for
// the tiny exponents this domain produces.
func (r FaultRate) AttemptFailProb(c timeunit.Time) prob.P {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	if c < 0 {
		panic(fmt.Sprintf("safety: negative exposure %v", c))
	}
	hours := c.Float() / timeunit.Hour.Float()
	return prob.OneMinusExp(-r.PerHour * hours)
}

// Apply returns a copy of the tasks with each FailProb replaced by the
// rate-derived per-attempt probability for that task's WCET. Longer
// attempts are exposed longer and fail more often — the coupling the
// constant-f model ignores.
func (r FaultRate) Apply(tasks []task.Task) []task.Task {
	out := make([]task.Task, len(tasks))
	for i, t := range tasks {
		out[i] = t
		out[i].FailProb = r.AttemptFailProb(t.WCET)
	}
	return out
}
