// Package expt reproduces the paper's evaluation (§5): the FMS case-study
// sweeps of Figs. 1–2 and the synthetic acceptance-ratio experiments of
// Fig. 3, together with plain-text and CSV renderers for their data.
package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
)

// FMSPoint is one x-position of the Fig. 1 / Fig. 2 sweep: the adaptation
// profile n′_HI with the resulting mixed-criticality utilization UMC and
// the LO-level safety bound.
type FMSPoint struct {
	// NPrime is the swept adaptation profile n′_HI.
	NPrime int
	// UMC is the mixed-criticality system utilization (line 11 of
	// Algorithm 2 for killing, eq. 11 for degradation); schedulable iff
	// ≤ 1.
	UMC float64
	// PFHLO is the LO-level safety bound pfh(LO) (eq. 5 or eq. 7).
	PFHLO float64
	// Log10PFHLO is log10(PFHLO), the scale the figures plot.
	Log10PFHLO float64
	// Schedulable is UMC ≤ 1.
	Schedulable bool
	// Safe is PFHLO < PFH_LO (the level C requirement in the FMS).
	Safe bool
}

// FMSResult is the full sweep of one figure.
type FMSResult struct {
	// Mode is killing (Fig. 1) or degradation (Fig. 2).
	Mode safety.AdaptMode
	// Set is the FMS instance analyzed.
	Set *task.Set
	// NHI, NLO are the minimal re-execution profiles (the paper derives
	// n_HI = 3, n_LO = 2 for the FMS).
	NHI, NLO int
	// Points are the sweep points for n′_HI = 1..len(Points).
	Points []FMSPoint
}

// FMSSweep reproduces Fig. 1 (mode = Kill) or Fig. 2 (mode = Degrade,
// df = 6) on the given Table 4 instance: it derives the minimal
// re-execution profiles under OS = 10 h and sweeps the adaptation profile
// n′_HI from 1 to maxNPrime, reporting UMC and pfh(LO) at each point.
func FMSSweep(s *task.Set, mode safety.AdaptMode, df float64, maxNPrime int) (FMSResult, error) {
	if maxNPrime < 1 {
		return FMSResult{}, fmt.Errorf("expt: maxNPrime must be >= 1, got %d", maxNPrime)
	}
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	dual := s.Dual()
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)

	nHI, err := cfg.MinReexecProfile(hi, dual.Requirement(criticality.HI))
	if err != nil {
		return FMSResult{}, fmt.Errorf("expt: HI re-execution profile: %w", err)
	}
	nLO, err := cfg.MinReexecProfile(lo, dual.Requirement(criticality.LO))
	if err != nil {
		return FMSResult{}, fmt.Errorf("expt: LO re-execution profile: %w", err)
	}
	if mode != safety.Kill && mode != safety.Degrade {
		return FMSResult{}, fmt.Errorf("expt: unknown adaptation mode %d", mode)
	}
	res := FMSResult{Mode: mode, Set: s, NHI: nHI, NLO: nLO}
	req := dual.Requirement(criticality.LO)
	// The n′ points share one analysis context; the cache deduplicates the
	// Adaptation models and pfh bounds when several points (or a later
	// re-sweep) request the same n′.
	cache := safety.NewAdaptationCache(cfg, hi, lo)
	res.Points = make([]FMSPoint, maxNPrime)
	err = ForEach(maxNPrime, func(idx int) error {
		n := idx + 1
		pfhLO, err := cache.PFHLOUniform(mode, nLO, n, df)
		if err != nil {
			return err
		}
		safe, err := cache.MeetsLO(mode, nLO, n, df, req)
		if err != nil {
			return err
		}
		umc := core.UMC(s, nHI, nLO, n, mode, df)
		res.Points[idx] = FMSPoint{
			NPrime:      n,
			UMC:         umc,
			PFHLO:       pfhLO,
			Log10PFHLO:  prob.Log10(pfhLO),
			Schedulable: umc <= 1,
			Safe:        safe,
		}
		return nil
	})
	if err != nil {
		return FMSResult{}, err
	}
	return res, nil
}

// Fig1 runs the Fig. 1 reproduction on the calibrated killing instance.
func Fig1() (FMSResult, error) {
	return FMSSweep(gen.FMSAt(gen.DefaultFMSKillSeed), safety.Kill, 0, 4)
}

// Fig2 runs the Fig. 2 reproduction on the calibrated degradation
// instance with df = 6.
func Fig2() (FMSResult, error) {
	return FMSSweep(gen.FMSAt(gen.DefaultFMSDegradeSeed), safety.Degrade, gen.FMSDegradeFactor, 4)
}
