package core

import (
	"fmt"
	"math"

	"repro/internal/mcsched"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Linear-scan reference implementations of the FT-S inner searches.
// The differential tests pin the bisected and heap-based production
// searches to these.

// maxSchedProfileLinear is the reference linear scan of line 8: one full
// conversion and test per candidate, from n_HI downwards. Kept verbatim
// so differential tests pin the bisected search to it.
func maxSchedProfileLinear(s *task.Set, scr *Scratch, test mcsched.Test, p Profiles) (int, error) {
	for n := p.NHI; n >= 1; n-- {
		conv, err := scr.convert(s, Profiles{NHI: p.NHI, NLO: p.NLO, NPrime: n})
		if err != nil {
			return 0, err
		}
		if test.Schedulable(conv) {
			return n, nil
		}
	}
	return 0, nil
}

// optimizeReexecProfilesLinear is the reference greedy with the O(tasks)
// rescan (and double contrib evaluation) per grant. Kept verbatim so
// differential tests pin the heap path to it; analyses should call
// OptimizeReexecProfiles.
func optimizeReexecProfilesLinear(buf []int, cfg safety.Config, tasks []task.Task, requirement float64) ([]int, error) {
	ns := buf[:0]
	for range tasks {
		ns = append(ns, 1)
	}
	if len(tasks) == 0 || math.IsInf(requirement, 1) {
		return ns, nil
	}
	hour := timeunit.Hours(1)
	contrib := func(i, n int) float64 {
		return float64(cfg.Rounds(tasks[i], n, hour)) * prob.Pow(tasks[i].FailProb, n)
	}
	total := 0.0
	for i := range tasks {
		total += contrib(i, 1)
	}
	for steps := 0; total > requirement; steps++ {
		if steps > safety.MaxProfile*len(tasks) {
			return nil, fmt.Errorf("core: no per-task profile assignment meets PFH requirement %g (reached %g)", requirement, total)
		}
		best, bestGain := -1, 0.0
		for i := range tasks {
			if ns[i] >= safety.MaxProfile {
				continue
			}
			drop := contrib(i, ns[i]) - contrib(i, ns[i]+1)
			if drop <= 0 {
				continue
			}
			gain := drop / tasks[i].Utilization()
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: per-task profile search stuck at pfh %g > %g", total, requirement)
		}
		total += contrib(best, ns[best]+1) - contrib(best, ns[best])
		ns[best]++
	}
	return ns, nil
}

// minAdaptPerTaskLinear is the reference linear scan of the per-task
// line-4 search, kept verbatim for the differential tests.
func minAdaptPerTaskLinear(cfg safety.Config, opt Options, cache *safety.AdaptationCache, lo []task.Task, nsLO []int, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	if opt.Mode == safety.Kill {
		if limit := cfg.KillingPFHLOLimit(lo, nsLO); limit >= requirement {
			return 0, fmt.Errorf("core: killing cannot keep pfh(LO) below %g (limit %g)", requirement, limit)
		}
	}
	for n := 1; n <= safety.MaxProfile; n++ {
		adapt, err := cache.Uniform(n)
		if err != nil {
			return 0, err
		}
		var pfh float64
		switch opt.Mode {
		case safety.Kill:
			pfh = cfg.KillingPFHLO(lo, nsLO, adapt)
		case safety.Degrade:
			pfh = cfg.DegradationPFHLO(lo, nsLO, adapt, opt.DF)
		}
		if pfh < requirement {
			return n, nil
		}
	}
	return 0, fmt.Errorf("core: no adaptation profile keeps pfh(LO) below %g", requirement)
}

// maxSchedProfilePerTaskLinear is the reference linear scan of the
// per-task line 8, kept for the differential tests.
func maxSchedProfilePerTaskLinear(s *task.Set, test mcsched.Test, ns []int, maxHI int) (int, error) {
	for n := maxHI; n >= 1; n-- {
		conv, err := ConvertPerTask(s, ns, n)
		if err != nil {
			return 0, err
		}
		if test.Schedulable(conv) {
			return n, nil
		}
	}
	return 0, nil
}
