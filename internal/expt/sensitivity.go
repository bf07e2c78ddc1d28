package expt

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/stats"
	"repro/internal/task"
)

// These experiments go beyond the paper's figures: a sensitivity sweep
// over the degradation factor df (the paper fixes df = 6 without
// justification) and a robustness study over random Table 4 instances
// (the paper reports a single random FMS draw).

// DFPoint is one df value of the sensitivity sweep.
type DFPoint struct {
	// DF is the degradation factor.
	DF float64
	// Acceptance is the FT-S acceptance ratio at this df.
	Acceptance float64
	// CI is the 95% Wilson interval of the acceptance ratio.
	CI stats.Interval
	// MeanPFHLO averages the achieved pfh(LO) bound over accepted sets
	// (0 when none were accepted).
	MeanPFHLO float64
}

// DFSweep measures how the degradation factor trades schedulability
// against delivered LO service: larger df weakens the degraded-mode
// utilization term U_LO^LO/(df−1) of eq. (12) (more sets fit) while
// thinning the LO service — and, per eq. (7), larger df does not change
// the pfh(LO) bound, which depends on the undegraded ω(1, t).
func DFSweep(hi, lo criticality.Level, u, failProb float64, dfs []float64, setsPerPoint int, seed int64) ([]DFPoint, error) {
	if len(dfs) == 0 || setsPerPoint < 1 {
		return nil, fmt.Errorf("expt: need df values and sets per point")
	}
	for _, df := range dfs {
		if df <= 1 {
			return nil, fmt.Errorf("expt: degradation factor must be > 1, got %g", df)
		}
	}
	params := gen.PaperParams(hi, lo, u, failProb)
	scfg := safety.DefaultConfig()
	// Shared-workload evaluation: set i is drawn once (the drawer matches
	// the allocating generator bit for bit on seed + i, the seeds the
	// per-df sweep used) and walks the whole df axis. The eq. (7) safety
	// verdict is df-independent, so one FTSSafety per set serves every df
	// and only the line-8 schedulability search reruns. Verdicts land in
	// per-(set, df) slots and the Kahan sums accumulate serially in set
	// order per df, keeping each point bit-identical to the independent
	// per-df sweep regardless of worker count.
	type verdict struct {
		ok  bool
		pfh float64
	}
	type dfEval struct {
		drawer *gen.Drawer
		scr    *core.Scratch
		cache  *safety.AdaptationCache
	}
	verdicts := make([]verdict, setsPerPoint*len(dfs))
	evals := make([]*dfEval, Workers())
	err := ForEachWorker(setsPerPoint, fig3Chunk, func(w, i int) error {
		ev := evals[w]
		if ev == nil {
			d, err := gen.NewDrawer(params, 0)
			if err != nil {
				return err
			}
			ev = &dfEval{drawer: d, scr: core.NewScratch()}
			evals[w] = ev
		}
		s, err := ev.drawer.Draw(seed + int64(i))
		if err != nil {
			return nil // degenerate draw: counts as rejected at every df
		}
		hiT, loT := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
		if ev.cache == nil {
			ev.cache = safety.NewAdaptationCache(scfg, hiT, loT)
		} else {
			ev.cache.Reset(scfg, hiT, loT)
		}
		opt := core.Options{Safety: scfg, Mode: safety.Degrade, DF: dfs[0], Cache: ev.cache, Scratch: ev.scr}
		sv, err := core.FTSSafety(s, opt)
		if err != nil {
			return err
		}
		for di, df := range dfs {
			opt.DF = df
			res, err := core.FTSWithSafety(s, opt, sv)
			if err != nil {
				return err
			}
			verdicts[i*len(dfs)+di] = verdict{ok: res.OK, pfh: res.PFHLO}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]DFPoint, 0, len(dfs))
	for di, df := range dfs {
		accepted := 0
		var pfhSum prob.KahanSum
		for i := 0; i < setsPerPoint; i++ {
			v := verdicts[i*len(dfs)+di]
			if v.ok {
				accepted++
				pfhSum.Add(v.pfh)
			}
		}
		p := DFPoint{
			DF:         df,
			Acceptance: float64(accepted) / float64(setsPerPoint),
			CI:         stats.Wilson95(accepted, setsPerPoint),
		}
		if accepted > 0 {
			p.MeanPFHLO = pfhSum.Value() / float64(accepted)
		}
		out = append(out, p)
	}
	return out, nil
}

// FMSRobustness re-runs the Fig. 1 / Fig. 2 analysis over many random
// Table 4 instances and reports how often the published qualitative
// findings hold, quantifying how representative the paper's single random
// draw is.
type FMSRobustness struct {
	// Instances is the number of random Table 4 draws analyzed.
	Instances int
	// ProfilesMatch counts instances whose minimal re-execution profiles
	// are the published n_HI = 3, n_LO = 2.
	ProfilesMatch int
	// KillUncertifiable counts instances where FT-S with killing fails —
	// the paper's central claim that level C tasks cannot be killed.
	KillUncertifiable int
	// DegradeCertifiable counts instances where FT-S with degradation
	// (df = 6) succeeds.
	DegradeCertifiable int
	// StoryHolds counts instances exhibiting the full published story:
	// killing fails AND degradation succeeds.
	StoryHolds int
}

// RunFMSRobustness analyzes n random FMS instances.
func RunFMSRobustness(n int, seed int64) (FMSRobustness, error) {
	if n < 1 {
		return FMSRobustness{}, fmt.Errorf("expt: need at least one instance")
	}
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	r := FMSRobustness{Instances: n}
	// Instances are independent: evaluate them across Workers() goroutines
	// into per-index verdicts, then count serially.
	type verdict struct{ profiles, killFail, degOK bool }
	verdicts := make([]verdict, n)
	err := ForEach(n, func(i int) error {
		s := gen.FMSAt(seed + int64(i))
		hi := s.ByClass(criticality.HI)
		lo := s.ByClass(criticality.LO)
		nHI, err1 := cfg.MinReexecProfile(hi, s.Dual().Requirement(criticality.HI))
		nLO, err2 := cfg.MinReexecProfile(lo, s.Dual().Requirement(criticality.LO))
		verdicts[i].profiles = err1 == nil && err2 == nil && nHI == 3 && nLO == 2
		kill, err := core.FTEDFVD(s, cfg)
		if err != nil {
			return err
		}
		deg, err := core.FTEDFVDDegrade(s, cfg, gen.FMSDegradeFactor)
		if err != nil {
			return err
		}
		verdicts[i].killFail = !kill.OK
		verdicts[i].degOK = deg.OK
		return nil
	})
	if err != nil {
		return FMSRobustness{}, err
	}
	for _, v := range verdicts {
		if v.profiles {
			r.ProfilesMatch++
		}
		if v.killFail {
			r.KillUncertifiable++
		}
		if v.degOK {
			r.DegradeCertifiable++
		}
		if v.killFail && v.degOK {
			r.StoryHolds++
		}
	}
	return r, nil
}

// String summarizes the robustness study.
func (r FMSRobustness) String() string {
	pct := func(k int) float64 { return 100 * float64(k) / float64(r.Instances) }
	return fmt.Sprintf("over %d Table 4 instances: profiles (3,2) %.0f%%, killing uncertifiable %.0f%%, degradation certifiable %.0f%%, full story %.0f%%",
		r.Instances, pct(r.ProfilesMatch), pct(r.KillUncertifiable), pct(r.DegradeCertifiable), pct(r.StoryHolds))
}

// OSPoint is one operation-duration value of the OS sweep.
type OSPoint struct {
	// Hours is the operation duration OS.
	Hours int
	// PFHLOKill is the killing bound pfh(LO) of eq. (5) at this OS.
	PFHLOKill float64
	// PFHLODegrade is the degradation bound of eq. (7).
	PFHLODegrade float64
	// KillCertifiable and DegradeCertifiable report whether FT-S
	// succeeds at this OS in each mode.
	KillCertifiable, DegradeCertifiable bool
}

// OSSweep measures how the operation duration OS affects certifiability
// on a fixed FMS instance: the killing bound of eq. (5) accumulates kill
// probability over the whole mission (R(t) falls with t), so longer
// missions are strictly harder to certify under killing — an effect the
// paper fixes at OS = 10 without exploring. The adaptation profile is
// held at n′_HI = 2 (the largest schedulable value on the calibrated
// instances).
func OSSweep(s *task.Set, hours []int) ([]OSPoint, error) {
	if len(hours) == 0 {
		return nil, fmt.Errorf("expt: need at least one OS value")
	}
	for _, h := range hours {
		if h < 1 {
			return nil, fmt.Errorf("expt: OS must be >= 1 hour, got %d", h)
		}
	}
	// Each OS value is an independent analysis (its own safety config, so
	// no adaptation cache is shared across points): fan out by index.
	out := make([]OSPoint, len(hours))
	err := ForEach(len(hours), func(idx int) error {
		h := hours[idx]
		cfg := safety.Config{OperationHours: h, AssumeFullWCET: true}
		hi := s.ByClass(criticality.HI)
		lo := s.ByClass(criticality.LO)
		nLO, err := cfg.MinReexecProfile(lo, s.Dual().Requirement(criticality.LO))
		if err != nil {
			return err
		}
		adapt, err := safety.NewUniformAdaptation(cfg, hi, 2)
		if err != nil {
			return err
		}
		p := OSPoint{
			Hours:        h,
			PFHLOKill:    cfg.KillingPFHLOUniform(lo, nLO, adapt),
			PFHLODegrade: cfg.DegradationPFHLOUniform(lo, nLO, adapt, gen.FMSDegradeFactor),
		}
		kill, err := core.FTEDFVD(s, cfg)
		if err != nil {
			return err
		}
		p.KillCertifiable = kill.OK
		deg, err := core.FTEDFVDDegrade(s, cfg, gen.FMSDegradeFactor)
		if err != nil {
			return err
		}
		p.DegradeCertifiable = deg.OK
		out[idx] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PHIPoint is one HI-task-share value of the P_HI sweep.
type PHIPoint struct {
	// PHI is the probability that a generated task is HI criticality.
	PHI float64
	// Baseline and Adapted are acceptance ratios as in Fig. 3.
	Baseline, Adapted float64
	// Gap is Adapted − Baseline: how much the adaptation mechanism buys.
	Gap float64
}

// PHISweep varies the HI-task share the paper fixes at 0.2: with few HI
// tasks there is little to re-execute (baseline already accepts); with
// many, killing the shrinking LO share stops paying. The adaptation gain
// peaks in between.
func PHISweep(mode safety.AdaptMode, df float64, u, failProb float64, phis []float64, setsPerPoint int, seed int64) ([]PHIPoint, error) {
	if len(phis) == 0 || setsPerPoint < 1 {
		return nil, fmt.Errorf("expt: need P_HI values and sets per point")
	}
	// Validate every point's generator parameters before the first draw,
	// so a draw error below is a degenerate draw, not a bad input.
	params := make([]gen.Params, len(phis))
	for pi, phi := range phis {
		params[pi] = gen.PaperParams(criticality.LevelB, criticality.LevelD, u, failProb)
		params[pi].PHI = phi
		if err := params[pi].Validate(); err != nil {
			return nil, fmt.Errorf("expt: P_HI=%g U=%g f=%g: %w", phi, u, failProb, err)
		}
	}
	// Reject a bad mode or df here too: at low U no draw may reach FT-S,
	// whose own validation would otherwise never run.
	if err := (core.Options{Safety: safety.DefaultConfig(), Mode: mode, DF: df}).Validate(); err != nil {
		return nil, err
	}
	out := make([]PHIPoint, 0, len(phis))
	for pi, phi := range phis {
		verdicts := make([]verdict, setsPerPoint)
		ForEach(setsPerPoint, func(i int) error {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			// A degenerate draw keeps the zero verdict: rejected both ways.
			if s, err := gen.TaskSet(rng, params[pi]); err == nil {
				verdicts[i] = judge(s, mode, df)
			}
			return nil
		})
		baseline, adapted := reduceVerdicts(verdicts)
		p := PHIPoint{PHI: phi, Baseline: baseline, Adapted: adapted}
		p.Gap = p.Adapted - p.Baseline
		out = append(out, p)
	}
	return out, nil
}
