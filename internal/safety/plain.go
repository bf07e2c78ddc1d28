package safety

import (
	"fmt"

	"repro/internal/criticality"
	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// PlainPFH implements eq. (2) of Lemma 3.1: the PFH of a group of tasks
// when each job of tasks[i] executes up to ns[i] times and no task is ever
// killed or degraded,
//
//	pfh = Σ_i r_i(n_i, 1h) · f_i^{n_i}.
//
// The PFH does not vary from hour to hour (constant per-attempt failure
// probabilities, sporadic releases), so the bound is evaluated over a
// one-hour window regardless of OS.
func (c Config) PlainPFH(tasks []task.Task, ns []int) float64 { return c.plainPFH(tasks, ns, 0) }

// PlainPFHUniform is PlainPFH with the same re-execution profile n for
// every task, the restriction Algorithm 1 works under (§4.2), evaluated
// without materializing the profile slice so the profile searches of
// Algorithm 1 stay allocation-free.
func (c Config) PlainPFHUniform(tasks []task.Task, n int) float64 { return c.plainPFH(tasks, nil, n) }

// plainPFH evaluates eq. (2) with per-task profiles ns, or the uniform
// profile n for every task when ns is nil.
func (c Config) plainPFH(tasks []task.Task, ns []int, n int) float64 {
	if ns != nil && len(ns) != len(tasks) {
		panic(fmt.Sprintf("safety: %d profiles for %d tasks", len(ns), len(tasks)))
	}
	var sum prob.KahanSum
	var pow runMemo
	hour := timeunit.Hours(1)
	for i, t := range tasks {
		if ns != nil {
			n = ns[i]
		}
		r := c.Rounds(t, n, hour)
		sum.Add(float64(r) * pow.pow(t.FailProb, n))
	}
	return sum.Value()
}

// runMemo holds one value of a function of (f, n), f^n or log(1 − f^n),
// for the last pair it was asked about. The per-task sums of eqs. (2),
// (3), (5), (6) and the no-kill limit ask about each task's (f, n) in
// task order, and every task of a drawn set shares one f, so a run of
// equal pairs pays one transcendental instead of one per task, with the
// same bits. One memo serves one of the two functions, and every query
// has n ≥ 1, so the zero value holds no pair.
type runMemo struct {
	f float64
	n int
	v float64
}

// pow returns prob.Pow(f, n).
func (m *runMemo) pow(f float64, n int) float64 {
	if n != m.n || f != m.f {
		m.f, m.n, m.v = f, n, prob.Pow(f, n)
	}
	return m.v
}

// log1mPow returns prob.Log1mPow(f, n).
func (m *runMemo) log1mPow(f float64, n int) float64 {
	if n != m.n || f != m.f {
		m.f, m.n, m.v = f, n, prob.Log1mPow(f, n)
	}
	return m.v
}

// PlainPFHClass evaluates eq. (2) over the tasks of one criticality role
// of a dual-criticality set, with a uniform profile.
func (c Config) PlainPFHClass(s *task.Set, cl criticality.Class, n int) float64 {
	return c.PlainPFHUniform(s.ByClass(cl), n)
}
