// Package explore enumerates the fault-tolerant design space the paper's
// algorithm navigates point-wise: for a given task set it runs FT-S over
// every combination of adaptation mechanism (killing, degradation at
// several factors) and pluggable schedulability test S, scores each
// certified design on safety margin, retained LO service and utilization
// headroom, and marks the Pareto-optimal choices. This operationalizes
// the paper's message that safety and schedulability are "conflicting
// forces": the explorer shows exactly what each mechanism trades away.
package explore

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/obsv"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
)

// exploreMetrics counts design points against the safety verdicts that
// served them (see internal/obsv): verdict_reuses = designs −
// safety_verdicts is exactly the work the FTSSafety/FTSWithSafety
// split saves, so a collapse of the reuse ratio flags a caching
// regression in the sweep structure itself.
type exploreMetrics struct {
	designs        *obsv.Counter
	safetyVerdicts *obsv.Counter
	verdictReuses  *obsv.Counter
}

var exploreView = obsv.NewView(func(r *obsv.Registry) *exploreMetrics {
	return &exploreMetrics{
		designs:        r.Counter("explore.designs"),
		safetyVerdicts: r.Counter("explore.safety_verdicts"),
		verdictReuses:  r.Counter("explore.verdict_reuses"),
	}
})

// Design is one evaluated point of the design space.
type Design struct {
	// Mode and DF identify the adaptation mechanism (DF is 0 for
	// killing).
	Mode safety.AdaptMode
	DF   float64
	// TestName is the schedulability test S used.
	TestName string
	// Result is the FT-S outcome.
	Result core.Result
	// SafetyMarginLO is log10(PFH_LO requirement / achieved pfh(LO)) —
	// orders of magnitude of slack; +Inf when the LO level carries no
	// requirement. Only meaningful for certified designs.
	SafetyMarginLO float64
	// LOService estimates the LO service retained if the adaptation
	// triggers: 0 under killing, 1/df under degradation, weighted by the
	// probability the trigger ever fires within OS (eq. 3): designs that
	// almost never adapt score near 1 regardless of mechanism.
	LOService float64
	// Headroom is 1 − max(LO-mode, adapted-mode utilization) of the
	// converted set — a uniform proxy for how much slack the processor
	// retains (not each test's own bound).
	Headroom float64
	// Pareto marks designs not dominated on
	// (SafetyMarginLO, LOService, Headroom) by any other certified
	// design.
	Pareto bool
}

// String renders one line per design.
func (d Design) String() string {
	mech := "kill"
	if d.Mode == safety.Degrade {
		mech = fmt.Sprintf("degrade(df=%g)", d.DF)
	}
	status := "rejected"
	if d.Result.OK {
		status = fmt.Sprintf("n'=%d margin=%.1f service=%.2f headroom=%.2f",
			d.Result.Profiles.NPrime, d.SafetyMarginLO, d.LOService, d.Headroom)
		if d.Pareto {
			status += " ◆pareto"
		}
	}
	return fmt.Sprintf("%-16s %-12s %s", mech, d.TestName, status)
}

// Options parameterizes the exploration.
type Options struct {
	// Safety is the PFH analysis configuration.
	Safety safety.Config
	// DFs lists the degradation factors to explore; empty means {2, 6, 12}.
	DFs []float64
}

// killTests are the schedulability tests of the killing designs.
var killTests = []mcsched.Test{mcsched.EDFVD{}, mcsched.AMCrtb{}, mcsched.SMC{}, mcsched.DBFTune{}}

// Explore evaluates the design space and marks the Pareto front.
func Explore(s *task.Set, opt Options) ([]Design, error) {
	if err := opt.Safety.Validate(); err != nil {
		return nil, err
	}
	dfs := opt.DFs
	if len(dfs) == 0 {
		dfs = []float64{2, 6, 12}
	}
	// Every design point analyzes the same task set under the same safety
	// config — only S and df vary, and the safety half of Algorithm 1
	// (lines 1–7) is test-independent. One shared adaptation cache serves
	// the bound evaluations of all points, one scratch serves their line-8
	// conversions, and each (Mode, DF) safety verdict is computed once by
	// core.FTSSafety and reused across every schedulability test via
	// core.FTSWithSafety — the remaining per-design work is exactly the
	// bisected n²_HI search.
	cache := safety.NewAdaptationCache(opt.Safety, s.ByClass(criticality.HI), s.ByClass(criticality.LO))
	scr := core.NewScratch()
	m := exploreView.Get()
	var designs []Design
	killOpt := core.Options{Safety: opt.Safety, Mode: safety.Kill, Cache: cache, Scratch: scr}
	svKill, err := core.FTSSafety(s, killOpt)
	if err != nil {
		return nil, err
	}
	m.safetyVerdicts.Inc()
	for i, test := range killTests {
		killOpt.Test = test
		d, err := evaluate(s, killOpt, 0, svKill)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			m.verdictReuses.Inc()
		}
		designs = append(designs, d)
	}
	for _, df := range dfs {
		if df <= 1 {
			return nil, fmt.Errorf("explore: degradation factor must be > 1, got %g", df)
		}
	}
	// The eq. (7) bound behind the degradation safety verdict does not
	// depend on df (only the degraded-mode utilization of line 8 does), so
	// one FTSSafety serves the whole df axis, like svKill serves the kill
	// tests.
	degOpt := core.Options{Safety: opt.Safety, Mode: safety.Degrade, DF: dfs[0], Cache: cache, Scratch: scr}
	svDeg, err := core.FTSSafety(s, degOpt)
	if err != nil {
		return nil, err
	}
	m.safetyVerdicts.Inc()
	for i, df := range dfs {
		degOpt.DF = df
		d, err := evaluate(s, degOpt, df, svDeg)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			m.verdictReuses.Inc()
		}
		designs = append(designs, d)
	}
	m.designs.Add(uint64(len(designs)))
	markPareto(designs)
	return designs, nil
}

// evaluate completes FT-S for one design point from the shared safety
// verdict and scores it.
func evaluate(s *task.Set, opt core.Options, df float64, sv core.SafetyVerdict) (Design, error) {
	res, err := core.FTSWithSafety(s, opt, sv)
	if err != nil {
		return Design{}, err
	}
	d := Design{Mode: opt.Mode, DF: df, TestName: res.TestName, Result: res}
	if !res.OK {
		return d, nil
	}
	// The scratch path leaves Converted nil; rebuild it once per certified
	// design — the Design API exposes it and headroom reads it.
	if res.Converted == nil {
		res.Converted, err = core.Convert(s, res.Profiles)
		if err != nil {
			return Design{}, err
		}
		d.Result = res
	}
	req := s.Dual().Requirement(criticality.LO)
	if math.IsInf(req, 1) {
		d.SafetyMarginLO = math.Inf(1)
	} else if res.PFHLO > 0 {
		d.SafetyMarginLO = prob.Log10(req) - prob.Log10(res.PFHLO)
	} else {
		d.SafetyMarginLO = math.Inf(1)
	}
	d.LOService = loService(s, opt, res)
	d.Headroom = headroom(s, opt, res)
	return d, nil
}

// loService weights the post-trigger LO service by the probability the
// trigger fires within the mission (eq. 3). The adaptation model comes
// from the shared cache when the caller provided one.
func loService(s *task.Set, opt core.Options, res core.Result) float64 {
	cache := opt.Cache
	if cache == nil {
		cache = safety.NewAdaptationCache(opt.Safety, s.ByClass(criticality.HI), nil)
	}
	adapt, err := cache.Uniform(res.Profiles.NPrime)
	if err != nil {
		return 0
	}
	pAdapt := adapt.AdaptProb(opt.Safety.Horizon())
	retained := 0.0
	if opt.Mode == safety.Degrade {
		retained = 1 / opt.DF
	}
	return (1-pAdapt)*1 + pAdapt*retained
}

// headroom is 1 − max(LO-mode, adapted-mode utilization) of the converted
// set: a mechanism-uniform slack proxy.
func headroom(s *task.Set, opt core.Options, res core.Result) float64 {
	conv := res.Converted
	uHILO := conv.Util(criticality.HI, criticality.LO)
	uHIHI := conv.Util(criticality.HI, criticality.HI)
	uLOLO := conv.Util(criticality.LO, criticality.LO)
	loMode := uHILO + uLOLO
	adapted := uHIHI
	if opt.Mode == safety.Degrade {
		adapted += uLOLO / opt.DF
	}
	return 1 - math.Max(loMode, adapted)
}

// markPareto flags certified designs not dominated on the three metrics.
func markPareto(ds []Design) {
	dominates := func(a, b Design) bool {
		ge := a.SafetyMarginLO >= b.SafetyMarginLO && a.LOService >= b.LOService && a.Headroom >= b.Headroom
		gt := a.SafetyMarginLO > b.SafetyMarginLO || a.LOService > b.LOService || a.Headroom > b.Headroom
		return ge && gt
	}
	for i := range ds {
		if !ds[i].Result.OK {
			continue
		}
		ds[i].Pareto = true
		for j := range ds {
			if i == j || !ds[j].Result.OK {
				continue
			}
			if dominates(ds[j], ds[i]) {
				ds[i].Pareto = false
				break
			}
		}
	}
}

// Recommend picks the certified Pareto design with the most retained LO
// service, breaking ties by headroom; ok = false when nothing certifies.
func Recommend(ds []Design) (Design, bool) {
	best := -1
	for i, d := range ds {
		if !d.Result.OK || !d.Pareto {
			continue
		}
		if best < 0 || d.LOService > ds[best].LOService ||
			(d.LOService == ds[best].LOService && d.Headroom > ds[best].Headroom) {
			best = i
		}
	}
	if best < 0 {
		return Design{}, false
	}
	return ds[best], true
}
