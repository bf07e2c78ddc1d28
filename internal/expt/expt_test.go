package expt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/safety"
)

// The calibrated Fig. 1 reproduction: n_HI = 3, n_LO = 2 (as the paper
// derives for the FMS), the UMC curve rises with n′_HI and crosses 1
// between n′_HI = 2 and 3, and pfh(LO) falls with n′_HI with the killing
// bound around 1e-1..1e0 at n′_HI = 2.
func TestFig1Shape(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.NHI != 3 || r.NLO != 2 {
		t.Fatalf("profiles n_HI=%d n_LO=%d, want 3/2 (paper §5.1)", r.NHI, r.NLO)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].UMC < r.Points[i-1].UMC {
			t.Errorf("UMC not non-decreasing at n'=%d", i+1)
		}
		if r.Points[i].PFHLO > r.Points[i-1].PFHLO {
			t.Errorf("pfh(LO) not non-increasing at n'=%d", i+1)
		}
	}
	if !r.Points[0].Schedulable || !r.Points[1].Schedulable {
		t.Error("n' = 1, 2 must be schedulable")
	}
	if r.Points[2].Schedulable || r.Points[3].Schedulable {
		t.Error("n' = 3, 4 must be unschedulable (paper: n' > 2)")
	}
	// Killing devastates LO safety at small n′: around 1e-1 at n′ = 2.
	if lg := r.Points[1].Log10PFHLO; lg < -3 || lg > 1 {
		t.Errorf("log10 pfh(LO) at n'=2 = %.2f, want ≈ -1..0 (paper: order 1e-1)", lg)
	}
	if r.Points[0].Safe || r.Points[1].Safe {
		t.Error("killing at n' <= 2 must violate level C safety")
	}
}

// The calibrated Fig. 2 reproduction: same profile derivation, crossing
// between n′_HI = 2 and 3, and pfh(LO) around 1e-10 at n′_HI = 2 — ten
// orders of magnitude safer than killing, the paper's headline comparison.
func TestFig2Shape(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.NHI != 3 || r.NLO != 2 {
		t.Fatalf("profiles n_HI=%d n_LO=%d, want 3/2", r.NHI, r.NLO)
	}
	if !r.Points[0].Schedulable || !r.Points[1].Schedulable {
		t.Error("n' = 1, 2 must be schedulable")
	}
	if r.Points[2].Schedulable || r.Points[3].Schedulable {
		t.Error("n' = 3, 4 must be unschedulable")
	}
	if lg := r.Points[1].Log10PFHLO; lg > -8 {
		t.Errorf("log10 pfh(LO) at n'=2 = %.2f, want <= -8 (paper: order 1e-11)", lg)
	}
	if !r.Points[1].Safe {
		t.Error("degradation at n'=2 must satisfy level C safety")
	}
}

// Degradation beats killing on LO safety at every sweep point when run on
// the same instance.
func TestKillingVsDegradationSameInstance(t *testing.T) {
	s := gen.FMSAt(gen.DefaultFMSKillSeed)
	kill, err := FMSSweep(s, safety.Kill, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := FMSSweep(s, safety.Degrade, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kill.Points {
		if deg.Points[i].PFHLO > kill.Points[i].PFHLO {
			t.Errorf("n'=%d: degradation pfh %g > killing pfh %g",
				i+1, deg.Points[i].PFHLO, kill.Points[i].PFHLO)
		}
	}
}

func TestFMSSweepErrors(t *testing.T) {
	s := gen.FMSAt(1)
	if _, err := FMSSweep(s, safety.Kill, 0, 0); err == nil {
		t.Error("expected error for maxNPrime = 0")
	}
	if _, err := FMSSweep(s, safety.AdaptMode(9), 0, 2); err == nil {
		t.Error("expected error for unknown mode")
	}
}

func TestPanelConfig(t *testing.T) {
	for _, c := range []struct {
		panel string
		lo    criticality.Level
		mode  safety.AdaptMode
	}{
		{"3a", criticality.LevelD, safety.Kill},
		{"3b", criticality.LevelC, safety.Kill},
		{"3c", criticality.LevelD, safety.Degrade},
		{"3d", criticality.LevelC, safety.Degrade},
	} {
		cfg, err := PanelConfig(c.panel, 10, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.panel, err)
		}
		if cfg.LO != c.lo || cfg.Mode != c.mode {
			t.Errorf("%s: LO=%v mode=%v", c.panel, cfg.LO, cfg.Mode)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.panel, err)
		}
	}
	if _, err := PanelConfig("3e", 10, 1); err == nil {
		t.Error("expected error for unknown panel")
	}
}

func TestFig3ConfigValidate(t *testing.T) {
	good, _ := PanelConfig("3a", 10, 1)
	bad := []func(*Fig3Config){
		func(c *Fig3Config) { c.HI = criticality.LevelD; c.LO = criticality.LevelB },
		func(c *Fig3Config) { c.Mode = safety.Degrade; c.DF = 1 },
		func(c *Fig3Config) { c.Mode = 7 },
		func(c *Fig3Config) { c.FailProbs = nil },
		func(c *Fig3Config) { c.Utils = nil },
		func(c *Fig3Config) { c.SetsPerPoint = 0 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// A reduced-scale panel 3a: acceptance falls with utilization, adaptation
// dominates the baseline, and smaller f dominates larger f.
func TestFig3aReducedShape(t *testing.T) {
	cfg, err := PanelConfig("3a", 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Utils = []float64{0.5, 0.7, 0.9}
	r, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 2 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		for i := range cfg.Utils {
			if c.Adapted[i] < c.Baseline[i] {
				t.Errorf("f=%g U=%.2f: adapted %.2f < baseline %.2f",
					c.FailProb, cfg.Utils[i], c.Adapted[i], c.Baseline[i])
			}
			if c.Adapted[i] < 0 || c.Adapted[i] > 1 || c.Baseline[i] < 0 || c.Baseline[i] > 1 {
				t.Errorf("ratio out of [0,1]")
			}
		}
		// Monotone-ish fall with U: allow small sampling noise.
		if c.Adapted[0]+0.15 < c.Adapted[len(cfg.Utils)-1] {
			t.Errorf("f=%g: acceptance rising with U: %v", c.FailProb, c.Adapted)
		}
	}
	// Safer hardware (f = 1e-5, curve index 1) must not do worse overall.
	var sumHi, sumLo float64
	for i := range cfg.Utils {
		sumHi += r.Curves[0].Adapted[i]
		sumLo += r.Curves[1].Adapted[i]
	}
	if sumLo+1e-9 < sumHi {
		t.Errorf("f=1e-5 total acceptance %.2f below f=1e-3 %.2f", sumLo, sumHi)
	}
	// Killing must visibly widen the schedulable region for LO ∈ {D, E}
	// at high utilization (Fig. 3a's shadow).
	gap := r.Curves[1].Adapted[2] - r.Curves[1].Baseline[2]
	if gap <= 0 {
		t.Errorf("no adaptation gain at U=0.9 (gap %.2f)", gap)
	}
}

// Panel 3b (LO = C, killing): the gap between adapted and baseline nearly
// vanishes — killing violates LO safety, the paper's central negative
// result.
func TestFig3bKillingRarelyHelps(t *testing.T) {
	cfgA, _ := PanelConfig("3a", 40, 7)
	cfgB, _ := PanelConfig("3b", 40, 7)
	cfgA.Utils = []float64{0.9}
	cfgB.Utils = []float64{0.9}
	cfgA.FailProbs = []float64{1e-5}
	cfgB.FailProbs = []float64{1e-5}
	ra, err := Fig3(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Fig3(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	gapA := ra.Curves[0].Adapted[0] - ra.Curves[0].Baseline[0]
	gapB := rb.Curves[0].Adapted[0] - rb.Curves[0].Baseline[0]
	if gapB > gapA {
		t.Errorf("killing helps safety-relevant LO tasks more (%.2f) than D/E tasks (%.2f)", gapB, gapA)
	}
	if gapB > 0.2 {
		t.Errorf("killing gap for LO=C = %.2f, should be small (paper: rarely helps)", gapB)
	}
}

func TestFig3Deterministic(t *testing.T) {
	cfg, _ := PanelConfig("3a", 20, 3)
	cfg.Utils = []float64{0.8}
	cfg.FailProbs = []float64{1e-5}
	a, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Curves[0].Adapted[0] != b.Curves[0].Adapted[0] || a.Curves[0].Baseline[0] != b.Curves[0].Baseline[0] {
		t.Error("Fig3 not deterministic in seed")
	}
}

func TestFig3RejectsBadConfig(t *testing.T) {
	if _, err := Fig3(Fig3Config{}); err == nil {
		t.Error("expected error")
	}
}

// TestSweepsRejectUndrawableInputs checks that the acceptance sweeps
// return an error for inputs the generator refuses to draw from — a
// failure probability outside [0, 1), a zero utilization, a UUnifast
// set of one task — instead of counting every set as a degenerate draw
// and reporting all-zero acceptance ratios.
func TestSweepsRejectUndrawableInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Fig3Config)
	}{
		{"f=1.5", func(c *Fig3Config) { c.FailProbs = []float64{1e-3, 1.5} }},
		{"UUnifast 1 task", func(c *Fig3Config) { c.Generator, c.TasksPerSet = GenUUnifast, 1 }},
		{"U=0", func(c *Fig3Config) { c.Utils = []float64{0.5, 0} }},
	} {
		cfg := smallPanel(t, "3a")
		cfg.SetsPerPoint = 4
		tc.mut(&cfg)
		if res, err := Fig3(cfg); err == nil {
			t.Errorf("%s: Fig3 returned %+v and no error", tc.name, res.Curves)
		}
		if res, err := Fig3Ref(cfg); err == nil {
			t.Errorf("%s: Fig3Ref returned %+v and no error", tc.name, res.Curves)
		}
		camp := CampaignConfig{
			HI:        cfg.HI,
			Panels:    []CampaignPanel{{Name: "3a", LO: cfg.LO, Mode: cfg.Mode}},
			FailProbs: cfg.FailProbs, Utils: cfg.Utils,
			SetsPerPoint: cfg.SetsPerPoint, Seed: cfg.Seed,
			Generator: cfg.Generator, TasksPerSet: cfg.TasksPerSet,
		}
		if err := camp.Validate(); err == nil {
			t.Errorf("%s: CampaignConfig.Validate accepted the grid", tc.name)
		}
		if _, err := Campaign(camp); err == nil {
			t.Errorf("%s: Campaign returned no error", tc.name)
		}
	}
	for _, tc := range []struct {
		name string
		u, f float64
	}{{"U=0", 0, 1e-5}, {"f=1.5", 0.8, 1.5}} {
		if points, err := PHISweep(safety.Kill, 0, tc.u, tc.f, []float64{0.2}, 5, 1); err == nil {
			t.Errorf("%s: PHISweep returned %+v and no error", tc.name, points)
		}
	}
}

func TestPaperUtils(t *testing.T) {
	utils := PaperUtils()
	if len(utils) != 15 {
		t.Fatalf("len = %d, want 15 (0.30..1.00 step 0.05)", len(utils))
	}
	if math.Abs(utils[0]-0.30) > 1e-9 || math.Abs(utils[14]-1.00) > 1e-9 {
		t.Errorf("range = [%g, %g]", utils[0], utils[14])
	}
}

func TestRenderers(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	headers, rows := FMSRows(r)
	var tbl strings.Builder
	if err := WriteTable(&tbl, headers, rows); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"n'_HI", "UMC", "log10 pfh(LO)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2+len(rows) {
		t.Errorf("table has %d lines, want %d", got, 2+len(rows))
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, headers, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "n'_HI,UMC") {
		t.Errorf("csv header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}

	cfg, _ := PanelConfig("3a", 5, 1)
	cfg.Utils = []float64{0.5}
	fr, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h3, r3 := Fig3Rows(fr)
	if len(h3) != 5 || len(r3) != 1 {
		t.Errorf("fig3 rows: %d headers, %d rows", len(h3), len(r3))
	}
}
