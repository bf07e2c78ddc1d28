// Package core implements the paper's contribution: the conversion of the
// fault-tolerant mixed-criticality scheduling problem into a conventional
// mixed-criticality scheduling problem (Lemma 4.1), the generic FT-S
// scheduling algorithm (Algorithm 1, Theorem 4.1) and its EDF-VD
// instantiations (Algorithm 2 and the service-degradation variant,
// Appendix B).
package core

import (
	"fmt"

	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/task"
)

// Profiles bundles the uniform re-execution and adaptation profiles of
// §4.2: every HI task re-executes up to NHI times, every LO task up to NLO
// times, and the LO tasks are killed/degraded when any HI instance starts
// its (NPrime+1)-th execution attempt.
type Profiles struct {
	// NHI is the re-execution profile n_HI of every HI task (≥ 1).
	NHI int
	// NLO is the re-execution profile n_LO of every LO task (≥ 1).
	NLO int
	// NPrime is the adaptation (killing/degradation) profile n′_HI of
	// every HI task (≥ 1). NPrime ≥ NHI means the trigger can never fire
	// (no instance performs more than NHI attempts): the LO tasks are
	// never adapted.
	NPrime int
}

// Validate reports profile errors.
func (p Profiles) Validate() error {
	if p.NHI < 1 || p.NLO < 1 || p.NPrime < 1 {
		return fmt.Errorf("core: profiles must be >= 1, got %+v", p)
	}
	return nil
}

// String renders e.g. "n_HI=3 n_LO=1 n'_HI=2".
func (p Profiles) String() string {
	return fmt.Sprintf("n_HI=%d n_LO=%d n'_HI=%d", p.NHI, p.NLO, p.NPrime)
}

// Convert implements the problem conversion of Lemma 4.1: it builds the
// conventional mixed-criticality task set Γ(n_HI, n_LO, n′_HI) in which
//
//   - every HI task gets C(HI) = n_HI·C and C(LO) = n′_HI·C, and
//   - every LO task gets C(HI) = C(LO) = n_LO·C,
//
// so that a HI instance exceeding its LO-criticality budget at runtime is
// exactly an instance starting its (n′_HI+1)-th attempt — the paper's
// adaptation trigger. The conversion is conservative: exceeding n′·C
// implies a (n′+1)-th attempt, but an attempt may finish early.
//
// NPrime is clamped to NHI (C(LO) ≤ C(HI) in the Vestal model; beyond
// n_HI the trigger cannot fire anyway, so the clamp loses nothing).
func Convert(s *task.Set, p Profiles) (*mcsched.MCSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := appendConverted(make([]mcsched.MCTask, 0, s.Len()), s, p)
	return mcsched.NewMCSet(out)
}

// appendConverted appends the Lemma 4.1 conversion of s under p to dst and
// returns the extended slice. p must already be validated.
func appendConverted(dst []mcsched.MCTask, s *task.Set, p Profiles) []mcsched.MCTask {
	nprime := p.NPrime
	if nprime > p.NHI {
		nprime = p.NHI
	}
	for _, t := range s.Tasks() {
		mt := mcsched.MCTask{
			Name:     t.Name,
			Period:   t.Period,
			Deadline: t.Deadline,
			Class:    s.Class(t),
		}
		if mt.Class == criticality.HI {
			mt.CHI = t.RoundLength(p.NHI)
			mt.CLO = t.RoundLength(nprime)
		} else {
			mt.CHI = t.RoundLength(p.NLO)
			mt.CLO = mt.CHI
		}
		dst = append(dst, mt)
	}
	return dst
}

// MustConvert is Convert panicking on error, for tests and examples.
func MustConvert(s *task.Set, p Profiles) *mcsched.MCSet {
	m, err := Convert(s, p)
	if err != nil {
		panic(err)
	}
	return m
}
