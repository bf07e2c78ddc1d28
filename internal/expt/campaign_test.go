package expt

import (
	"reflect"
	"testing"

	"repro/internal/criticality"
	"repro/internal/safety"
)

// smallCampaign trims the paper campaign to a differential-test size:
// all four panels and both failure probabilities over utilizations
// spanning the feasible, transition and stressed regimes, so every
// verdict path (baseline accept, schedulability reject, single-probe
// accept and reject) is exercised against the reference.
func smallCampaign() CampaignConfig {
	cfg := PaperCampaign(24, 7)
	cfg.Utils = []float64{0.5, 0.65, 0.8, 0.9}
	return cfg
}

// TestCampaignMatchesFig3Ref is the campaign engine's acceptance test:
// every (panel, f) slice of the shared-workload sweep must equal the
// original allocating per-curve path run on the paired single-f config —
// same seeds, same draws, identical verdicts, so identical ratios.
func TestCampaignMatchesFig3Ref(t *testing.T) {
	for _, gc := range generatorCases {
		cfg := smallCampaign()
		cfg.Generator, cfg.TasksPerSet = gc.gen, gc.tasks
		got, err := Campaign(cfg)
		if err != nil {
			t.Fatalf("%v/%d: %v", gc.gen, gc.tasks, err)
		}
		if len(got.Panels) != len(cfg.Panels) {
			t.Fatalf("%v/%d: got %d panels, want %d", gc.gen, gc.tasks, len(got.Panels), len(cfg.Panels))
		}
		for pi, p := range cfg.Panels {
			for fi, f := range cfg.FailProbs {
				want, err := Fig3Ref(cfg.PanelFig3Config(p, f))
				if err != nil {
					t.Fatalf("%v/%d panel %s f=%g: Fig3Ref: %v", gc.gen, gc.tasks, p.Name, f, err)
				}
				if !reflect.DeepEqual(got.Panels[pi].Curves[fi], want.Curves[0]) {
					t.Errorf("%v/%d panel %s f=%g: campaign diverged from reference:\n got %+v\nwant %+v",
						gc.gen, gc.tasks, p.Name, f, got.Panels[pi].Curves[fi], want.Curves[0])
				}
			}
		}
	}
}

// TestCampaignMatchesFig3Pooled cross-checks against the per-curve Fig3,
// which runs each (panel, f) on the same engine with the draws keyed by
// the curve's failure-probability index instead of panel 0.
func TestCampaignMatchesFig3Pooled(t *testing.T) {
	cfg := smallCampaign()
	got, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range cfg.Panels {
		for fi, f := range cfg.FailProbs {
			want, err := Fig3(cfg.PanelFig3Config(p, f))
			if err != nil {
				t.Fatalf("panel %s f=%g: Fig3: %v", p.Name, f, err)
			}
			if !reflect.DeepEqual(got.Panels[pi].Curves[fi], want.Curves[0]) {
				t.Errorf("panel %s f=%g: campaign diverged from Fig3:\n got %+v\nwant %+v",
					p.Name, f, got.Panels[pi].Curves[fi], want.Curves[0])
			}
		}
	}
}

// TestCampaignWorkerInvariance checks the determinism contract: the whole
// figure is byte-identical under FTMC_WORKERS = 1 and 4, because every
// (set, config) verdict depends only on the set's seed and the config,
// never on which worker evaluates it or what it evaluated before.
func TestCampaignWorkerInvariance(t *testing.T) {
	cfg := smallCampaign()
	var base CampaignResult
	for i, w := range []string{"1", "4"} {
		t.Setenv("FTMC_WORKERS", w)
		res, err := Campaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Panels, base.Panels) {
			t.Fatalf("FTMC_WORKERS=%s changed the figure:\n got %+v\nwant %+v", w, res.Panels, base.Panels)
		}
	}
}

// TestCampaignSmallerFNeverLosesASet pins Fig. 3's f-dominance claim
// where it holds exactly: on the campaign's paired draws, every set
// accepted at f = 1e-3 is also accepted at f = 1e-5, in every panel and
// for both the baseline and the adapted verdict. The seeds are held out
// from every pinned result. (ftmc-accept's per-curve figures draw each
// f's sets apart, so there the claim holds only within noise.)
func TestCampaignSmallerFNeverLosesASet(t *testing.T) {
	if testing.Short() {
		t.Skip("five paper-size campaigns skipped in -short mode")
	}
	for seed := int64(1001); seed <= 1005; seed++ {
		cfg := PaperCampaign(500, seed)
		if len(cfg.FailProbs) != 2 || cfg.FailProbs[0] != 1e-3 || cfg.FailProbs[1] != 1e-5 {
			t.Fatalf("PaperCampaign failure probabilities %v, want [1e-3 1e-5]", cfg.FailProbs)
		}
		r := newCampaignRunner(&cfg)
		verdicts := make([]verdict, cfg.SetsPerPoint*r.nCfg)
		for ui, u := range cfg.Utils {
			if err := r.evalRange(ui, 0, cfg.SetsPerPoint, verdicts); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.SetsPerPoint; i++ {
				for pi, p := range cfg.Panels {
					large, small := verdicts[i*r.nCfg+2*pi], verdicts[i*r.nCfg+2*pi+1]
					if large.base && !small.base || large.adapt && !small.adapt {
						t.Errorf("seed %d, panel %s, U = %.2f, set %d: %+v at f = 1e-3 but %+v at f = 1e-5",
							seed, p.Name, u, i, large, small)
					}
				}
			}
		}
	}
}

// TestCampaignValidate exercises the configuration error paths.
func TestCampaignValidate(t *testing.T) {
	good := smallCampaign()
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"no panels", func(c *CampaignConfig) { c.Panels = nil }},
		{"LO not below HI", func(c *CampaignConfig) { c.Panels[0].LO = criticality.LevelA }},
		{"degrade df", func(c *CampaignConfig) { c.Panels[2].DF = 1 }},
		{"unknown mode", func(c *CampaignConfig) { c.Panels[1].Mode = 7 }},
		{"no fail probs", func(c *CampaignConfig) { c.FailProbs = nil }},
		{"no utils", func(c *CampaignConfig) { c.Utils = nil }},
		{"no sets", func(c *CampaignConfig) { c.SetsPerPoint = 0 }},
	}
	for _, tc := range cases {
		cfg := good
		cfg.Panels = append([]CampaignPanel(nil), good.Panels...)
		tc.mut(&cfg)
		if _, err := Campaign(cfg); err == nil {
			t.Errorf("%s: Campaign accepted an invalid config", tc.name)
		}
	}
}

// TestPaperCampaignShape pins the published figure's configuration: four
// panels 3a–3d matching PanelConfig, and both paper failure probabilities.
func TestPaperCampaignShape(t *testing.T) {
	cfg := PaperCampaign(500, 1)
	if len(cfg.Panels) != 4 {
		t.Fatalf("got %d panels, want 4", len(cfg.Panels))
	}
	for _, p := range cfg.Panels {
		want, err := PanelConfig(p.Name, 500, 1)
		if err != nil {
			t.Fatalf("panel %s: %v", p.Name, err)
		}
		if p.LO != want.LO || p.Mode != want.Mode || p.DF != want.DF {
			t.Errorf("panel %s: got (LO=%v mode=%v df=%g), want (LO=%v mode=%v df=%g)",
				p.Name, p.LO, p.Mode, p.DF, want.LO, want.Mode, want.DF)
		}
		if p.Mode == safety.Degrade && p.DF <= 1 {
			t.Errorf("panel %s: degrade panel without a df", p.Name)
		}
	}
	if !reflect.DeepEqual(cfg.FailProbs, []float64{1e-3, 1e-5}) {
		t.Errorf("fail probs = %v, want paper's {1e-3, 1e-5}", cfg.FailProbs)
	}
}

// benchCampaign is the benchmark figure: the full 4-panel × 2-f
// cross-product at a bench-sized sample count.
func benchCampaign() CampaignConfig {
	cfg := PaperCampaign(16, 1)
	cfg.Utils = []float64{0.6, 0.85}
	return cfg
}

// BenchmarkCampaignFigure measures the shared-workload engine producing
// the whole figure in one pass.
func BenchmarkCampaignFigure(b *testing.B) {
	cfg := benchCampaign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Campaign(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignPerCurve measures the same figure as one Fig3 run per
// (panel, f): the same engine, but each set is drawn and its
// configuration-independent work redone for every configuration rather
// than shared across the cross-product.
func BenchmarkCampaignPerCurve(b *testing.B) {
	cfg := benchCampaign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range cfg.Panels {
			for _, f := range cfg.FailProbs {
				if _, err := Fig3(cfg.PanelFig3Config(p, f)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
