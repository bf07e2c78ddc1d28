package core

import (
	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/task"
)

// Scratch is the conversion arena of the line-8 search: the buffers of
// the converted MC set Γ(n_HI, n_LO, n′) that FTS, FTSWithSafety and
// MaxSchedProfile rebuild (or delta-patch) at every candidate adaptation
// profile. With a Scratch threaded through Options — and an adaptation
// cache the caller rebinds per set through Options.Cache — repeated FTS
// calls on a stream of task sets are allocation-free in the steady
// state. FTSSafety (lines 1–7) and FTSPerTask do not read it.
//
// Ownership rules:
//
//   - One Scratch belongs to ONE worker goroutine; it must never be shared
//     concurrently.
//   - The arena is reused by the next call with the same Scratch, so FTS
//     leaves Result.Converted nil under a Scratch (see Options.Scratch).
//
// The zero value is ready to use.
type Scratch struct {
	mcTasks []mcsched.MCTask
	conv    mcsched.MCSet
}

// NewScratch returns an empty scratch. Equivalent to new(Scratch); exists
// for discoverability.
func NewScratch() *Scratch { return &Scratch{} }

// convert is Convert into the scratch-owned MCSet: the returned set
// aliases scratch memory and is valid until the next convert call. A nil
// receiver falls back to the allocating Convert.
func (scr *Scratch) convert(s *task.Set, p Profiles) (*mcsched.MCSet, error) {
	if scr == nil {
		return Convert(s, p)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	scr.mcTasks = appendConverted(scr.mcTasks[:0], s, p)
	if err := scr.conv.Reset(scr.mcTasks); err != nil {
		return nil, err
	}
	return &scr.conv, nil
}

// patchNPrime rewrites only the HI tasks' C(LO) fields of the scratch
// conversion for a new candidate adaptation profile and refreshes the one
// utilization sum that depends on them (U_HI^LO) — the delta between
// Γ(n_HI, n_LO, n′_a) and Γ(n_HI, n_LO, n′_b) is exactly those fields, so
// the line-8 probes skip the full rebuild (validation, names, the other
// three sums). Must follow a convert call on the same set with the same
// NHI; the patched fields are valid by construction (1 ≤ min(n′, n_HI) so
// 0 < C(LO) ≤ C(HI)), and RefreshUtilAt re-accumulates the sum in task
// order, so the patched set bit-matches a freshly converted one
// (TestDeltaPatchMatchesConvert).
func (scr *Scratch) patchNPrime(s *task.Set, nHI, nprime int) *mcsched.MCSet {
	if nprime > nHI {
		nprime = nHI
	}
	for i, t := range s.Tasks() {
		if s.Class(t) == criticality.HI {
			scr.mcTasks[i].CLO = t.RoundLength(nprime)
		}
	}
	scr.conv.RefreshUtilAt(criticality.HI, criticality.LO)
	return &scr.conv
}
