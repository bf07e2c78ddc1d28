package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// CampaignPanel is one configuration column of a campaign: an LO level and
// an adaptation mode (the HI level, failure probabilities and utilization
// axis are shared campaign-wide). The four published Fig. 3 panels are the
// canonical instances.
type CampaignPanel struct {
	// Name labels the panel in reports ("3a".."3d" for the paper figure).
	Name string
	// LO is the DO-178B level of the LO-criticality class.
	LO criticality.Level
	// Mode is killing or service degradation.
	Mode safety.AdaptMode
	// DF is the degradation factor, read in Degrade mode.
	DF float64
}

// CampaignConfig parameterizes a shared-workload sweep: one multi-panel
// figure produced from a single pass over the random task sets.
//
// The sharing contract: the random generators consume their RNG
// identically for every failure probability, LO level and adaptation mode
// (only the FailProb and Level field stamps differ, and the analysis
// layers never read Task.Level — requirements are passed explicitly). So
// for each (U, set-index) the campaign draws the set ONCE and evaluates it
// against the full cross-product Panels × FailProbs, restamping the
// failure probability in place between f groups.
type CampaignConfig struct {
	// HI is the DO-178B level of the HI-criticality class (paper: B).
	HI criticality.Level
	// Panels lists the configuration columns evaluated per drawn set.
	Panels []CampaignPanel
	// FailProbs lists the universal per-attempt failure probabilities f.
	FailProbs []float64
	// Utils is the shared x-axis: nominal system utilizations U.
	Utils []float64
	// SetsPerPoint is the number of random task sets per (U) point (500 in
	// the paper); each is shared by every (panel, f) configuration.
	SetsPerPoint int
	// Seed makes the campaign reproducible. Set i at utilization index ui
	// draws from the workload stream of gen.SimulationKey{Seed, 0, ui, i}
	// — the same stream a single-f Fig3Config{FailProbs: {f}, Seed: Seed}
	// walks (single-f configs put f at panel index 0), which is what
	// makes the campaign differentially testable against Fig3Ref.
	Seed int64
	// Generator selects the workload generator (Appendix C by default).
	Generator Generator
	// TasksPerSet fixes the task count for the UUnifast generator
	// (ignored by Appendix C); 0 defaults to 10.
	TasksPerSet int
}

// Validate reports configuration errors.
func (c CampaignConfig) Validate() error {
	if len(c.Panels) == 0 {
		return fmt.Errorf("expt: campaign needs at least one panel")
	}
	for _, p := range c.Panels {
		if !c.HI.MoreCriticalThan(p.LO) {
			return fmt.Errorf("expt: panel %q: HI level %v must exceed LO level %v", p.Name, c.HI, p.LO)
		}
		if err := (core.Options{Safety: safety.DefaultConfig(), Mode: p.Mode, DF: p.DF}).Validate(); err != nil {
			return fmt.Errorf("expt: panel %q: %w", p.Name, err)
		}
	}
	if len(c.FailProbs) == 0 || len(c.Utils) == 0 || c.SetsPerPoint < 1 {
		return fmt.Errorf("expt: need failure probabilities, utilizations and sets per point")
	}
	return validateDraws(c.HI, c.Panels[0].LO, c.Utils, c.FailProbs, c.Generator, c.TasksPerSet)
}

// PanelFig3Config returns the per-curve Fig3Config equivalent to one
// campaign panel restricted to a single failure probability. Running it
// through Fig3 or Fig3Ref draws exactly the sets the campaign shares
// (single-f configs put f at FailProbs index 0, matching the campaign's
// Panel coordinate 0) — the basis of the differential tests.
func (c CampaignConfig) PanelFig3Config(p CampaignPanel, failProb float64) Fig3Config {
	return Fig3Config{
		HI: c.HI, LO: p.LO, Mode: p.Mode, DF: p.DF,
		FailProbs:    []float64{failProb},
		Utils:        c.Utils,
		SetsPerPoint: c.SetsPerPoint,
		Seed:         c.Seed,
		Generator:    c.Generator,
		TasksPerSet:  c.TasksPerSet,
	}
}

// panelConfig synthesizes the full multi-f Fig3Config of one panel, used
// to label the panel's slot in the CampaignResult.
func (c CampaignConfig) panelConfig(p CampaignPanel) Fig3Config {
	cfg := c.PanelFig3Config(p, 0)
	cfg.FailProbs = c.FailProbs
	return cfg
}

// CampaignResult is one full figure: a Fig3Result per panel, in panel
// order, each with one curve per failure probability in FailProbs order.
type CampaignResult struct {
	Config CampaignConfig
	Panels []Fig3Result
}

// PaperCampaign is the full published figure as one campaign: panels
// 3a–3d (LO ∈ {D, C} × {kill, degrade}) with f ∈ {1e-3, 1e-5} over the
// paper's utilization axis.
func PaperCampaign(setsPerPoint int, seed int64) CampaignConfig {
	return CampaignConfig{
		HI: criticality.LevelB,
		Panels: []CampaignPanel{
			{Name: "3a", LO: criticality.LevelD, Mode: safety.Kill},
			{Name: "3b", LO: criticality.LevelC, Mode: safety.Kill},
			{Name: "3c", LO: criticality.LevelD, Mode: safety.Degrade, DF: gen.FMSDegradeFactor},
			{Name: "3d", LO: criticality.LevelC, Mode: safety.Degrade, DF: gen.FMSDegradeFactor},
		},
		FailProbs:    []float64{1e-3, 1e-5},
		Utils:        PaperUtils(),
		SetsPerPoint: setsPerPoint,
		Seed:         seed,
	}
}

// Campaign runs a shared-workload sweep: for every (U, set-index) it draws
// the task set once and judges it under every (panel, f) configuration,
// reusing across configurations everything that does not depend on f, the
// LO level or the mode — the draw itself, the per-class utilization sums
// of the baseline EDF bound, the minimal re-execution profiles within an f
// group and the eq. (3) adaptation models across kill and degrade. The
// line-8 schedulability search runs once per configuration that reaches
// it.
//
// Parallelism is at chunk granularity through ForEachWorkerChunked (the
// shared pool): a worker claims a contiguous run of sets and
// evaluates them set by set. Verdicts are filled by (set, config) index
// and reduced serially, so results are deterministic in Seed and
// byte-identical across every FTMC_WORKERS value. Per-(panel, f)
// verdicts equal those of the allocating reference Fig3Ref on the paired
// configs returned by PanelFig3Config (differential tests).
func Campaign(cfg CampaignConfig) (CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return CampaignResult{}, err
	}
	res := newEmptyResult(cfg)
	r := newCampaignRunner(&cfg)
	verdicts := make([]verdict, cfg.SetsPerPoint*r.nCfg)
	for ui := range cfg.Utils {
		m := exptView.Get()
		sp := m.campaignPointNs.Start()
		if err := r.evalRange(ui, 0, cfg.SetsPerPoint, verdicts); err != nil {
			return CampaignResult{}, err
		}
		reduceCampaignPoint(&res, ui, verdicts)
		sp.End()
		m.campaignPoints.Inc()
	}
	return res, nil
}

// newEmptyResult allocates the zeroed result shape of a campaign: one
// Fig3Result per panel with one curve per failure probability over the
// utilization axis.
func newEmptyResult(cfg CampaignConfig) CampaignResult {
	res := CampaignResult{Config: cfg, Panels: make([]Fig3Result, len(cfg.Panels))}
	for pi, p := range cfg.Panels {
		pr := Fig3Result{Config: cfg.panelConfig(p)}
		for _, f := range cfg.FailProbs {
			pr.Curves = append(pr.Curves, Fig3Curve{
				FailProb: f,
				Baseline: make([]float64, len(cfg.Utils)),
				Adapted:  make([]float64, len(cfg.Utils)),
			})
		}
		res.Panels[pi] = pr
	}
	return res
}

// reduceCampaignPoint folds one utilization point's full verdict vector
// (SetsPerPoint × nCfg, laid out set-major) into the result's curves.
// Acceptance counts are exact integers, so the reduction is independent
// of the order verdicts were produced in — the final ratios depend only
// on the verdict values themselves.
func reduceCampaignPoint(res *CampaignResult, ui int, verdicts []verdict) {
	cfg := &res.Config
	nCfg := len(cfg.Panels) * len(cfg.FailProbs)
	for pi := range cfg.Panels {
		for fi := range cfg.FailProbs {
			ci := pi*len(cfg.FailProbs) + fi
			var nb, na int
			for i := 0; i < cfg.SetsPerPoint; i++ {
				v := verdicts[i*nCfg+ci]
				if v.base {
					nb++
				}
				if v.adapt {
					na++
				}
			}
			n := float64(cfg.SetsPerPoint)
			res.Panels[pi].Curves[fi].Baseline[ui] = float64(nb) / n
			res.Panels[pi].Curves[fi].Adapted[ui] = float64(na) / n
		}
	}
}

// campaignRunner is the evaluation engine shared by Campaign, the
// distributed worker (serveWorker) and the per-curve Fig3:
// per-pool-worker campaignEval state reused across every range it
// evaluates, plus the configuration-derived constants. One runner serves
// any sequence of evalRange calls over the campaign grid.
type campaignRunner struct {
	cfg  *CampaignConfig
	nCfg int
	// panel is the Panel coordinate of every draw's gen.SimulationKey:
	// 0 for Campaign and the distributed worker, the failure-probability
	// index of the curve for Fig3.
	panel int
	evals []*campaignEval
}

func newCampaignRunner(cfg *CampaignConfig) *campaignRunner {
	return &campaignRunner{
		cfg:   cfg,
		nCfg:  len(cfg.Panels) * len(cfg.FailProbs),
		evals: make([]*campaignEval, Workers()),
	}
}

// fig3Chunk is the ForEachWorker claim size of the Monte-Carlo engines:
// sets cost on the order of a millisecond each, so a handful per claim
// amortizes the atomic without hurting load balance at SetsPerPoint =
// 500.
const fig3Chunk = 8

// evalRange evaluates sets [lo, hi) of utilization point ui, filling
// out[(i-lo)*nCfg : (i-lo+1)*nCfg] with set i's verdicts across the
// panel × failure-probability cross-product. out must hold
// (hi-lo)*nCfg verdicts. Every set draws from the workload stream of
// gen.SimulationKey{Seed, r.panel, ui, i}, so the verdicts are a pure
// function of the set's grid coordinates: identical no matter how the
// range is chunked, which pool worker claims a chunk, what was
// evaluated before, or which process (lease holder) runs the range —
// the invariant the distributed merge's byte-identity proof rests on.
func (r *campaignRunner) evalRange(ui, lo, hi int, out []verdict) error {
	u := r.cfg.Utils[ui]
	return ForEachWorkerChunked(hi-lo, fig3Chunk, func(w, start, end int) error {
		if w >= len(r.evals) { // FTMC_WORKERS grew between calls
			return fmt.Errorf("expt: pool width changed under a campaign runner (worker %d of %d)", w, len(r.evals))
		}
		ev := r.evals[w]
		if ev == nil {
			ev = &campaignEval{}
			r.evals[w] = ev
		}
		var first error
		for j := start; j < end; j++ {
			key := gen.SimulationKey{Seed: r.cfg.Seed, Panel: r.panel, Point: ui, Set: lo + j}
			err := ev.evalSet(r.cfg, u, key, out[j*r.nCfg:(j+1)*r.nCfg])
			if err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// loProfile memoizes one LO-level minimal re-execution profile within an
// f group (panels sharing an LO level share n_LO).
type loProfile struct {
	level criticality.Level
	n     int
	bad   bool
}

// campaignEval is the per-worker state of the campaign engine: a drawer
// arena retargeted along the utilization axis, the line-8 conversion
// scratch, an AdaptationCache rebound per f group and the per-f-group
// LO profiles.
type campaignEval struct {
	drawer *gen.Drawer
	scr    *core.Scratch
	cache  *safety.AdaptationCache
	los    []loProfile
}

// evalSet draws the set addressed by key at utilization u and fills
// out[pi*len(FailProbs)+fi] with the verdict of panel pi at failure
// probability fi, replicating the verdicts of judge (the Fig3Ref path)
// configuration by configuration.
func (ev *campaignEval) evalSet(cfg *CampaignConfig, u float64, key gen.SimulationKey, out []verdict) error {
	for i := range out {
		out[i] = verdict{}
	}
	if ev.drawer == nil {
		// Drawer parameters beyond TargetU and the level/f stamps never
		// influence the draw shape, so the first panel and failure
		// probability stand in for all of them.
		params := gen.PaperParams(cfg.HI, cfg.Panels[0].LO, u, cfg.FailProbs[0])
		d, err := gen.NewDrawer(params, drawerTasks(cfg.Generator, cfg.TasksPerSet))
		if err != nil {
			return err
		}
		ev.drawer = d
		ev.scr = core.NewScratch()
	} else if err := ev.drawer.Retarget(u); err != nil {
		return err
	}
	s, err := ev.drawer.DrawKeyed(key)
	if err != nil {
		return nil // degenerate draw: every configuration rejects, as in Fig3Ref
	}
	m := exptView.Get()
	m.campaignSets.Inc()
	m.campaignConfigs.Add(uint64(len(out)))
	// The class partition and timing parameters are fixed for the set, so
	// the baseline bound's utilization sums are computed once and shared by
	// every configuration.
	uHI := s.UtilizationClass(criticality.HI)
	uLO := s.UtilizationClass(criticality.LO)
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	scfg := safety.DefaultConfig()
	reqHI := cfg.HI.PFHRequirement()
	for fi, f := range cfg.FailProbs {
		if err := s.RestampFailProb(f); err != nil {
			return err
		}
		// Rebind the cache to the restamped tasks: eq. (3) models and
		// exact eq. (5) values are valid across panels within this f group
		// (kill and degrade share the eq. (3) models), but not across f
		// values.
		if ev.cache == nil {
			ev.cache = safety.NewAdaptationCache(scfg, hi, lo)
		} else {
			ev.cache.Reset(scfg, hi, lo)
		}
		nHI, errHI := scfg.MinReexecProfile(hi, reqHI)
		ev.los = ev.los[:0]
		for pi := range cfg.Panels {
			p := &cfg.Panels[pi]
			v := &out[pi*len(cfg.FailProbs)+fi]
			nLO, badLO := ev.minReexecLO(scfg, lo, p.LO)
			// Lines 1–3 + cheap test first: the exact EDF bound of the
			// fully re-executed set decides acceptance before any FT-S
			// machinery runs (Appendix C adopts adaptation only when the
			// system is infeasible otherwise).
			if errHI == nil && !badLO {
				v.base = float64(nHI)*uHI+float64(nLO)*uLO <= 1
			}
			if v.base {
				v.adapt = true
				m.campaignBaselineHits.Inc()
				continue
			}
			if errHI != nil || badLO {
				continue // no re-execution profile exists: FT-S line 2 fails
			}
			// Line 8 first: n²_HI caps every acceptable adaptation
			// profile, so with pfh(LO) non-increasing in n′ one line-4
			// question at n²_HI settles lines 4–15 — n¹_HI ≤ n²_HI iff
			// MeetsLO(n²_HI) — replacing the gallop+bisect line-4 search
			// of core.FTS (its dominant cost on the finite-requirement
			// panels). An error rejects, as an FT-S error does in judge.
			n2 := ev.maxSched(s, nHI, nLO, p.Mode, p.DF, m)
			if n2 == 0 {
				continue // no adaptation profile is schedulable
			}
			v.adapt, _ = ev.cache.MeetsLO(p.Mode, nLO, n2, p.DF, p.LO.PFHRequirement())
		}
	}
	return nil
}

// minReexecLO returns the f group's memoized minimal LO re-execution
// profile for one LO level (bad reports an unsatisfiable requirement).
func (ev *campaignEval) minReexecLO(scfg safety.Config, lo []task.Task, level criticality.Level) (n int, bad bool) {
	for _, r := range ev.los {
		if r.level == level {
			return r.n, r.bad
		}
	}
	n, err := scfg.MinReexecProfile(lo, level.PFHRequirement())
	ev.los = append(ev.los, loProfile{level: level, n: n, bad: err != nil})
	return n, err != nil
}

// maxSched returns the line-8 result n²_HI for this drawn set under the
// mode's schedulability test (0 when no n′ is schedulable, which is also
// how an FT-S-level error rejects in judge).
func (ev *campaignEval) maxSched(s *task.Set, nHI, nLO int, mode safety.AdaptMode, df float64, m *exptMetrics) int {
	var test mcsched.Test
	if mode == safety.Degrade {
		test = mcsched.EDFVDDegrade{DF: df}
	} else {
		test = mcsched.EDFVD{}
	}
	m.campaignSchedSearches.Inc()
	n2, err := core.MaxSchedProfile(s, ev.scr, test, core.Profiles{NHI: nHI, NLO: nLO, NPrime: nHI})
	if err != nil {
		return 0
	}
	return n2
}
