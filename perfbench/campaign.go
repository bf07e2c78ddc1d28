package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/task"
)

// campaignPlan sizes a campaign workload.
type campaignPlan struct {
	dist bool
	// sets is the number of sets per utilization point: 500 is the
	// paper-size figure (15 points × 500 sets, each judged under the
	// figure's 8 configurations).
	sets int
	// prefix is the sets per point of the expt.Fig3Ref check.
	prefix int
	// scaleFigures is how many figures the traced run times at pool
	// width 1 and 2 (campaign), or re-runs through expt.Campaign
	// (campaign-dist).
	scaleFigures int
}

func planCampaign(dist, small bool) campaignPlan {
	if small {
		return campaignPlan{dist: dist, sets: 6, prefix: 3, scaleFigures: 1}
	}
	return campaignPlan{dist: dist, sets: 500, prefix: 20, scaleFigures: 4}
}

// probeCampaignPlan sizes the campaign probes of other workloads'
// traced runs (probeLayers): 50 sets per point, so that every stage,
// the kill probes included (about a dozen per figure), is timed.
func probeCampaignPlan(dist, small bool) campaignPlan {
	if small {
		return planCampaign(dist, true)
	}
	return campaignPlan{dist: dist, sets: 50, prefix: 5, scaleFigures: 2}
}

// campaignChunk is expt.Campaign's claim size (fig3Chunk): at pool
// width 1 the engine flushes its deferred kill probes every 8 sets.
const campaignChunk = 8

// warmSeedOffset keeps the set-up figures' seeds apart from the timed
// ones (seed, seed+1, ...).
const warmSeedOffset = 1 << 30

func runCampaign(ctx context.Context, o options, small bool) (*outcome, error) {
	return runCampaigns(ctx, o, planCampaign(false, small))
}

func runCampaignDist(ctx context.Context, o options, small bool) (*outcome, error) {
	return runCampaigns(ctx, o, planCampaign(true, small))
}

// setWorkers sets FTMC_WORKERS ("" unsets it) and returns the function
// that restores the previous value.
func setWorkers(v string) func() {
	old, had := os.LookupEnv("FTMC_WORKERS")
	if v == "" {
		os.Unsetenv("FTMC_WORKERS")
	} else {
		os.Setenv("FTMC_WORKERS", v)
	}
	return func() {
		if had {
			os.Setenv("FTMC_WORKERS", old)
		} else {
			os.Unsetenv("FTMC_WORKERS")
		}
	}
}

// figure runs the paper-size figure at seed through expt.Campaign at
// the default pool width, or through expt.DistCampaign over NumCPU
// in-process pipe workers with default options (the caller pins
// FTMC_WORKERS=1, so the workers together use NumCPU threads too).
func figure(p campaignPlan, seed int64) (expt.CampaignResult, *expt.DistReport, error) {
	cfg := expt.PaperCampaign(p.sets, seed)
	if !p.dist {
		res, err := expt.Campaign(cfg)
		return res, nil, err
	}
	res, rep, err := expt.DistCampaign(cfg, expt.PipeWorkers(runtime.NumCPU()), expt.DistOptions{})
	return res, &rep, err
}

// figRun is one timed figure.
type figRun struct {
	seed int64
	wall time.Duration
	res  expt.CampaignResult
	rep  *expt.DistReport
}

// campaignWindow runs figures at seed, seed+1, ... back to back until
// the window has elapsed (at least one figure).
func campaignWindow(ctx context.Context, p campaignPlan, seed int64, window time.Duration) ([]figRun, error) {
	var runs []figRun
	start := time.Now()
	for k := int64(0); ctx.Err() == nil && (k == 0 || time.Since(start) < window); k++ {
		t0 := time.Now()
		res, rep, err := figure(p, seed+k)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("figure at seed %d: %w", seed+k, err)
		}
		runs = append(runs, figRun{seed: seed + k, wall: wall, res: res, rep: rep})
	}
	return runs, ctx.Err()
}

// setsPerFigure is the number of drawn sets one figure judges.
func setsPerFigure(p campaignPlan) int { return len(expt.PaperUtils()) * p.sets }

// campaignPass is one untraced or traced pass: set-up, window, counters.
type campaignPass struct {
	setupS float64
	runs   []figRun
	e2e    map[string]float64
	p90Ms  float64   // p90 figure wall time
	figMs  []float64 // every figure's wall time, in run order
	// cpu is the process CPU time of the window; both CPUs stay busy, so
	// it is close to twice the wall time.
	cpu  time.Duration
	reg  *obsv.Registry
	snap counters
}

func runCampaignPass(ctx context.Context, o options, p campaignPlan, traced bool) (*campaignPass, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	warm := func() (struct{}, error) {
		_, _, err := figure(p, o.seed+warmSeedOffset)
		return struct{}{}, err
	}
	setupS, _, err := timeSetup(reps, warm, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("set-up figure: %w", err)
	}
	cp := &campaignPass{setupS: setupS}
	if traced {
		cp.reg = obsv.NewRegistry()
		obsv.SetDefault(cp.reg)
		defer obsv.SetDefault(nil)
	}
	c0 := cpuTime()
	if cp.runs, err = campaignWindow(ctx, p, o.seed, time.Duration(o.seconds)*time.Second); err != nil {
		return nil, err
	}
	cp.cpu = cpuTime() - c0
	if traced {
		cp.snap = snapshot(cp.reg)
	}
	cp.figMs = make([]float64, len(cp.runs))
	var total time.Duration
	for i, r := range cp.runs {
		cp.figMs[i] = ms(r.wall)
		total += r.wall
	}
	walls := append([]float64(nil), cp.figMs...)
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	cp.p90Ms = quantile(walls, 0.90)
	cp.e2e = map[string]float64{
		"setup_s":          setupS,
		"latency_p50_ms":   quantile(walls, 0.50),
		"throughput_per_s": float64(setsPerFigure(p)*len(cp.runs)) / total.Seconds(),
		"rss_peak_mb":      rss,
	}
	return cp, nil
}

// runCampaigns runs the untraced window and its checks, and when
// tracing a second, traced window plus the layer measurements.
func runCampaigns(ctx context.Context, o options, p campaignPlan) (*outcome, error) {
	workers := ""
	if p.dist {
		workers = "1"
	}
	restore := setWorkers(workers)
	defer restore()
	window := obsv.NewManifest()

	untraced, err := runCampaignPass(ctx, o, p, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(untraced.runs), e2e: untraced.e2e}
	out.report = map[string]any{
		"plan":            map[string]any{"sets_per_point": p.sets, "sets_per_figure": setsPerFigure(p), "dist": p.dist, "workers": runtime.NumCPU()},
		"window_manifest": window,
		"figures":         len(untraced.runs),
		"figure_ms":       untraced.figMs,
		"cpu_s":           untraced.cpu.Seconds(),
		"e2e": map[string]float64{
			"setup_s":             untraced.e2e["setup_s"],
			"campaign_sets_per_s": untraced.e2e["throughput_per_s"],
			"fig3_p50_s":          untraced.e2e["latency_p50_ms"] / 1e3,
			"fig3_p90_s":          untraced.p90Ms / 1e3,
			"rss_peak_mb":         untraced.e2e["rss_peak_mb"],
		},
	}
	if err := checkCampaign(ctx, p, o.seed, untraced.runs, out); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, nil
	}

	traced, err := runCampaignPass(ctx, o, p, true)
	if err != nil {
		return nil, err
	}
	out.attempted += len(traced.runs)
	checkDistReports(traced.runs, out)
	out.report["tracing_overhead"] = overheadTable(untraced.e2e, traced.e2e)
	layers, err := campaignLayers(ctx, p, o.seed, untraced, traced, out)
	if err != nil {
		return nil, err
	}
	out.layers = layers
	return out, nil
}

// checkCampaign checks the untraced window's answers: the first figure
// reproduces exactly (campaign: a second expt.Campaign run;
// campaign-dist: expt.Campaign on the same seed), the engine agrees
// with the expt.Fig3Ref reference on the paired per-panel
// configurations for a prefix of the same sets, and no distributed
// lease was lost or retried.
func checkCampaign(ctx context.Context, p campaignPlan, seed int64, runs []figRun, out *outcome) error {
	checkDistReports(runs, out)
	restore := setWorkers("")
	defer restore()
	again, err := expt.Campaign(expt.PaperCampaign(p.sets, seed))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(again.Panels, runs[0].res.Panels) {
		out.fail("figure at seed %d differs from expt.Campaign on the same seed", seed)
	}
	cfg := expt.PaperCampaign(p.prefix, seed)
	prefix, err := expt.Campaign(cfg)
	if err != nil {
		return err
	}
	for pi, panel := range cfg.Panels {
		for fi, f := range cfg.FailProbs {
			if err := ctx.Err(); err != nil {
				return err
			}
			ref, err := expt.Fig3Ref(cfg.PanelFig3Config(panel, f))
			if err != nil {
				return err
			}
			got, want := prefix.Panels[pi].Curves[fi], ref.Curves[0]
			if !sameFloats(got.Baseline, want.Baseline) || !sameFloats(got.Adapted, want.Adapted) {
				out.fail("panel %s f=%g: expt.Campaign %v/%v, expt.Fig3Ref %v/%v over the first %d sets per point",
					panel.Name, f, got.Baseline, got.Adapted, want.Baseline, want.Adapted, p.prefix)
			}
		}
	}
	return nil
}

// checkDistReports counts a distributed figure that lost a worker or
// re-granted a lease as a failed operation.
func checkDistReports(runs []figRun, out *outcome) {
	for _, r := range runs {
		if r.rep != nil && (r.rep.WorkerFailures != 0 || r.rep.Reassigned != 0) {
			out.fail("figure at seed %d: %d worker failures, %d leases reassigned", r.seed, r.rep.WorkerFailures, r.rep.Reassigned)
		}
	}
}

// sameFloats compares two slices bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// campaignLayers computes the per-layer metrics of the campaign
// workloads: counter ratios of the traced window, plus — on campaign —
// the stage replay, the unattributed share and the width-2 scaling, or
// — on campaign-dist — the lease-protocol numbers and the overhead
// over expt.Campaign on the same seeds.
func campaignLayers(ctx context.Context, p campaignPlan, seed int64, untraced, traced *campaignPass, out *outcome) (map[string]float64, error) {
	after, before := traced.snap, counters{}
	memoHits := delta(before, after, "expt.campaign.sched_memo_hits")
	layers := map[string]float64{
		"expt.pool_steals_per_point":   ratio(delta(before, after, "expt.pool.steals"), delta(before, after, "expt.campaign.points")),
		"expt.campaign_baseline_ratio": ratio(delta(before, after, "expt.campaign.baseline_hits"), delta(before, after, "expt.campaign.configs")),
		"expt.campaign_memo_ratio":     ratio(memoHits, memoHits+delta(before, after, "expt.campaign.sched_searches")),
	}
	if p.dist {
		return layers, distLayers(ctx, p, untraced, traced, layers)
	}

	// Stage replay of the first timed figure, checked against it.
	st, res, fails, err := replayFigure(ctx, expt.PaperCampaign(p.sets, seed))
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		out.fail("%s", f)
	}
	for pi := range res.Panels {
		for fi, c := range res.Panels[pi].Curves {
			want := untraced.runs[0].res.Panels[pi].Curves[fi]
			if !sameFloats(c.Baseline, want.Baseline) || !sameFloats(c.Adapted, want.Adapted) {
				out.fail("stage replay of panel %d f=%g differs from the timed figure", pi, c.FailProb)
			}
		}
	}
	layers["gen.draw_us_per_set"] = us(st.draw) / float64(st.draws)
	layers["safety.min_reexec_us_per_set"] = us(st.line2) / float64(st.draws)
	layers["core.max_sched_us_per_search"] = ratio(us(st.sched), float64(st.searches))
	layers["safety.kill_batch_us_per_job"] = ratio(us(st.killBatch), float64(st.killJobs))
	layers["safety.kill_scalar_us_per_job"] = ratio(us(st.killScalar), float64(st.killJobs))
	layers["safety.degrade_us_per_probe"] = ratio(us(st.degrade), float64(st.degradeProbes))

	// The same figures at pool width 1 and 2; the first one's width-1
	// wall time is the whole the replayed stages are a share of.
	var wall [2]time.Duration
	var first time.Duration
	for wi, width := range []string{"1", "2"} {
		restore := setWorkers(width)
		for k := 0; k < p.scaleFigures && ctx.Err() == nil; k++ {
			t0 := time.Now()
			if _, err := expt.Campaign(expt.PaperCampaign(p.sets, seed+int64(k))); err != nil {
				restore()
				return nil, err
			}
			d := time.Since(t0)
			wall[wi] += d
			if wi == 0 && k == 0 {
				first = d
			}
		}
		restore()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	staged := st.draw + st.line2 + st.sched + st.killBatch + st.degrade
	layers["expt.campaign_unattributed_share"] = 1 - staged.Seconds()/first.Seconds()
	layers["expt.scaling_2"] = wall[0].Seconds() / wall[1].Seconds()
	out.report["stage_replay"] = map[string]any{
		"draws": st.draws, "searches": st.searches, "kill_jobs": st.killJobs, "degrade_probes": st.degradeProbes,
		"staged_s": staged.Seconds(), "campaign_width1_s": first.Seconds(),
		"scaling_figures": p.scaleFigures, "width1_s": wall[0].Seconds(), "width2_s": wall[1].Seconds(),
	}
	return layers, nil
}

// distLayers fills the lease-protocol metrics of campaign-dist.
func distLayers(ctx context.Context, p campaignPlan, untraced, traced *campaignPass, layers map[string]float64) error {
	var bytes, leases, reassigned, failures float64
	for _, r := range traced.runs {
		bytes += float64(r.rep.BytesIn + r.rep.BytesOut)
		leases += float64(r.rep.Leases)
		reassigned += float64(r.rep.Reassigned)
		failures += float64(r.rep.WorkerFailures)
	}
	layers["expt.dist_bytes_per_lease"] = ratio(bytes, leases)
	layers["expt.dist_reassigned"] = reassigned
	layers["expt.dist_worker_failures"] = failures
	for _, q := range []struct {
		name string
		q    float64
	}{{"expt.dist_lease_p50_ms", 0.50}, {"expt.dist_lease_p99_ms", 0.99}} {
		v, err := histQuantile(traced.reg, "expt.dist.lease_ns", q.q)
		if err != nil {
			return err
		}
		layers[q.name] = v / 1e6
	}
	// expt.Campaign at the default width on the untraced window's first
	// seeds, against the distributed wall times of the same seeds.
	restore := setWorkers("")
	defer restore()
	var dist, solo time.Duration
	for k := 0; k < p.scaleFigures && k < len(untraced.runs) && ctx.Err() == nil; k++ {
		r := untraced.runs[k]
		t0 := time.Now()
		if _, err := expt.Campaign(expt.PaperCampaign(p.sets, r.seed)); err != nil {
			return err
		}
		solo += time.Since(t0)
		dist += r.wall
	}
	layers["expt.dist_overhead"] = ratio(dist.Seconds(), solo.Seconds())
	return ctx.Err()
}

// stageTimes accumulates the replay's time per stage and the work
// counts they are divided by.
type stageTimes struct {
	draw, line2, sched, killBatch, killScalar, degrade time.Duration
	draws, searches, killJobs, degradeProbes           int
}

// schedKey is the line-8 memo key of expt.Campaign: the search result
// is shared across every configuration of one drawn set that agrees on
// it.
type schedKey struct {
	nHI, nLO int
	mode     safety.AdaptMode
	df       float64
}

// loProfile is one LO level's minimal re-execution profile within an f
// group.
type loProfile struct {
	n   int
	bad bool
}

// pendingKill is one deferred kill-mode probe: its configuration, the
// LO requirement it decides, the batch job and the scalar value the
// batch must reproduce.
type pendingKill struct {
	ci     int
	reqLO  float64
	job    safety.KillJob
	scalar float64
}

// replayFigure re-runs one figure single-threaded through the public
// stage functions in expt.Campaign's order — the Appendix C draw
// (gen.Drawer.DrawKeyed), line 2 (safety.Config.MinReexecProfile), the
// exact EDF baseline, line 8 memoized per drawn set
// (core.MaxSchedProfile), the degrade probes
// (safety.AdaptationCache.PFHLOUniform) and the kill probes deferred
// per chunk of 8 sets into safety.Config.KillingBatch — timing each
// stage. Every kill probe is also evaluated through the scalar
// AdaptationCache.PFHLOUniform on a cache of its own, which the batch
// must match bit for bit. Returns the stage times and the figure's
// acceptance ratios.
func replayFigure(ctx context.Context, cfg expt.CampaignConfig) (*stageTimes, expt.CampaignResult, []string, error) {
	st := &stageTimes{}
	var fails []string
	scfg := safety.DefaultConfig()
	nF := len(cfg.FailProbs)
	nCfg := len(cfg.Panels) * nF
	reqHI := cfg.HI.PFHRequirement()
	scr := core.NewScratch()
	batch := safety.NewBatchLO()
	var cache, scalar *safety.AdaptationCache
	rebind := func(c *safety.AdaptationCache, hi, lo []task.Task) *safety.AdaptationCache {
		if c == nil {
			return safety.NewAdaptationCache(scfg, hi, lo)
		}
		c.Reset(scfg, hi, lo)
		return c
	}
	res := expt.CampaignResult{Config: cfg, Panels: make([]expt.Fig3Result, len(cfg.Panels))}
	for pi := range cfg.Panels {
		for _, f := range cfg.FailProbs {
			res.Panels[pi].Curves = append(res.Panels[pi].Curves, expt.Fig3Curve{
				FailProb: f, Baseline: make([]float64, len(cfg.Utils)), Adapted: make([]float64, len(cfg.Utils)),
			})
		}
	}
	drawer, err := gen.NewDrawer(gen.PaperParams(cfg.HI, cfg.Panels[0].LO, cfg.Utils[0], cfg.FailProbs[0]), 0)
	if err != nil {
		return nil, res, nil, err
	}
	for ui, u := range cfg.Utils {
		if err := ctx.Err(); err != nil {
			return nil, res, nil, err
		}
		if err := drawer.Retarget(u); err != nil {
			return nil, res, nil, err
		}
		base := make([]int, nCfg)
		adapt := make([]int, nCfg)
		var pending []pendingKill
		flush := func() {
			if len(pending) == 0 {
				return
			}
			jobs := make([]safety.KillJob, len(pending))
			for i := range pending {
				jobs[i] = pending[i].job
			}
			vals := make([]float64, len(jobs))
			t := time.Now()
			scfg.KillingBatch(jobs, vals, batch)
			st.killBatch += time.Since(t)
			st.killJobs += len(jobs)
			for i, pk := range pending {
				if math.Float64bits(vals[i]) != math.Float64bits(pk.scalar) {
					fails = append(fails, fmt.Sprintf("U=%g: KillingBatch %v, scalar PFHLOUniform %v", u, vals[i], pk.scalar))
				}
				if vals[i] < pk.reqLO {
					adapt[pk.ci]++
				}
			}
			pending = pending[:0]
		}
		evalSet := func(i int) error {
			t := time.Now()
			s, err := drawer.DrawKeyed(gen.SimulationKey{Seed: cfg.Seed, Point: ui, Set: i})
			st.draw += time.Since(t)
			st.draws++
			if err != nil {
				return nil // a degenerate draw rejects under every configuration
			}
			uHI := s.UtilizationClass(criticality.HI)
			uLO := s.UtilizationClass(criticality.LO)
			hi := s.ByClass(criticality.HI)
			lo := s.ByClass(criticality.LO)
			sched := make(map[schedKey]int)
			for fi, f := range cfg.FailProbs {
				if err := s.RestampFailProb(f); err != nil {
					return err
				}
				cache = rebind(cache, hi, lo)
				scalar = rebind(scalar, hi, lo)
				t = time.Now()
				nHI, errHI := scfg.MinReexecProfile(hi, reqHI)
				st.line2 += time.Since(t)
				los := make(map[criticality.Level]loProfile)
				for pi, p := range cfg.Panels {
					ci := pi*nF + fi
					lp, ok := los[p.LO]
					if !ok {
						t = time.Now()
						n, err := scfg.MinReexecProfile(lo, p.LO.PFHRequirement())
						st.line2 += time.Since(t)
						lp = loProfile{n: n, bad: err != nil}
						los[p.LO] = lp
					}
					if errHI == nil && !lp.bad && float64(nHI)*uHI+float64(lp.n)*uLO <= 1 {
						base[ci]++
						adapt[ci]++
						continue
					}
					if errHI != nil || lp.bad {
						continue
					}
					key := schedKey{nHI: nHI, nLO: lp.n, mode: p.Mode}
					var test mcsched.Test = mcsched.EDFVD{}
					if p.Mode == safety.Degrade {
						key.df = p.DF
						test = mcsched.EDFVDDegrade{DF: p.DF}
					}
					n2, ok := sched[key]
					if !ok {
						t = time.Now()
						n2, err = core.MaxSchedProfile(s, scr, test, core.Profiles{NHI: nHI, NLO: lp.n, NPrime: nHI})
						st.sched += time.Since(t)
						st.searches++
						if err != nil {
							n2 = 0
						}
						sched[key] = n2
					}
					if n2 == 0 {
						continue
					}
					reqLO := p.LO.PFHRequirement()
					if math.IsInf(reqLO, 1) {
						adapt[ci]++
						continue
					}
					if p.Mode == safety.Kill {
						t = time.Now()
						v, err := scalar.PFHLOUniform(safety.Kill, lp.n, n2, 0)
						st.killScalar += time.Since(t)
						if err != nil {
							return err
						}
						job := safety.KillJob{
							HI: append([]task.Task(nil), hi...), LO: append([]task.Task(nil), lo...),
							NPrime: n2, NLO: lp.n,
						}
						pending = append(pending, pendingKill{ci: ci, reqLO: reqLO, job: job, scalar: v})
						continue
					}
					t = time.Now()
					pfh, err := cache.PFHLOUniform(p.Mode, lp.n, n2, p.DF)
					st.degrade += time.Since(t)
					st.degradeProbes++
					if err == nil && pfh < reqLO {
						adapt[ci]++
					}
				}
			}
			return nil
		}
		for i := 0; i < cfg.SetsPerPoint; i++ {
			if err := evalSet(i); err != nil {
				return nil, res, nil, fmt.Errorf("replaying set %d at U=%g: %w", i, u, err)
			}
			if (i+1)%campaignChunk == 0 {
				flush()
			}
		}
		flush()
		n := float64(cfg.SetsPerPoint)
		for pi := range cfg.Panels {
			for fi := range cfg.FailProbs {
				c := &res.Panels[pi].Curves[fi]
				c.Baseline[ui] = float64(base[pi*nF+fi]) / n
				c.Adapted[ui] = float64(adapt[pi*nF+fi]) / n
			}
		}
	}
	return st, res, fails, nil
}
