package gen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/criticality"
	"repro/internal/timeunit"
)

func TestPaperParams(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.6, 1e-5)
	if err := p.Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	if p.UMin != 0.01 || p.UMax != 0.2 || p.PHI != 0.2 {
		t.Errorf("params = %+v", p)
	}
	if p.TMin != timeunit.Milliseconds(200) || p.TMax != timeunit.Seconds(2) {
		t.Errorf("period range = [%v, %v]", p.TMin, p.TMax)
	}
}

func TestParamsValidateRejections(t *testing.T) {
	good := PaperParams(criticality.LevelB, criticality.LevelD, 0.6, 1e-5)
	cases := []func(*Params){
		func(p *Params) { p.UMin = 0 },
		func(p *Params) { p.UMin = 0.3; p.UMax = 0.2 },
		func(p *Params) { p.UMax = 1.5 },
		func(p *Params) { p.TargetU = 0 },
		func(p *Params) { p.TMin = 0 },
		func(p *Params) { p.TMin = timeunit.Seconds(3) },
		func(p *Params) { p.PHI = 0 },
		func(p *Params) { p.PHI = 1 },
		func(p *Params) { p.HILevel = criticality.LevelD; p.LOLevel = criticality.LevelB },
		func(p *Params) { p.FailProb = 1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// Non-finite values are refused with their own messages, never drawn
	// from: a draw toward +Inf would append tasks forever.
	for _, c := range []struct {
		mutate func(*Params)
		want   string
	}{
		{func(p *Params) { p.TargetU = math.Inf(1) }, "target utilization must be finite"},
		{func(p *Params) { p.TargetU = math.NaN() }, "target utilization is NaN"},
		{func(p *Params) { p.FailProb = math.NaN() }, "failure probability is NaN"},
		// A finite target past maxDrawTasks·UMin would append tasks until
		// memory runs out (and past about 1e15, forever).
		{func(p *Params) { p.TargetU = 1e12 }, "target utilization must be at most 1000"},
		{func(p *Params) { p.TargetU = math.Nextafter(1000, 2000) }, "target utilization must be at most 1000"},
		{func(p *Params) { p.UMin = 0.001; p.TargetU = 101 }, "target utilization must be at most 100"},
	} {
		p := good
		c.mutate(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", p, err, c.want)
		}
		if _, err := NewDrawer(p, 0); err == nil {
			t.Errorf("NewDrawer accepted %+v", p)
		}
		if p.TargetU == good.TargetU || p.UMin != good.UMin {
			continue
		}
		d, err := NewDrawer(good, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Retarget(p.TargetU); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Retarget(%g) = %v, want an error containing %q", p.TargetU, err, c.want)
		}
	}
	// The bound itself is accepted (checked through Validate only).
	p := good
	p.TargetU = maxDrawTasks * p.UMin
	if err := p.Validate(); err != nil {
		t.Errorf("Validate at the bound U = %g: %v", p.TargetU, err)
	}
}

func TestTaskSetHitsTargetUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, target := range []float64{0.3, 0.6, 0.9} {
		p := PaperParams(criticality.LevelB, criticality.LevelD, target, 1e-5)
		s, err := TaskSet(rng, p)
		if err != nil {
			t.Fatalf("U=%g: %v", target, err)
		}
		if got := s.Utilization(); math.Abs(got-target) > 0.01 {
			t.Errorf("U = %g, want ≈ %g", got, target)
		}
	}
}

func TestTaskSetRespectsParameterRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-3)
	for trial := 0; trial < 20; trial++ {
		s, err := TaskSet(rng, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range s.Tasks() {
			if tk.Period < p.TMin || tk.Period > p.TMax {
				t.Errorf("period %v out of [%v, %v]", tk.Period, p.TMin, p.TMax)
			}
			if !tk.Implicit() {
				t.Error("tasks must be implicit-deadline")
			}
			// Per-task utilization within [UMin, UMax] up to the final
			// shrink-to-target task and integer-µs rounding.
			if u := tk.Utilization(); u > p.UMax+1e-9 {
				t.Errorf("task utilization %g above UMax", u)
			}
			if tk.FailProb != 1e-3 {
				t.Errorf("FailProb = %g", tk.FailProb)
			}
			if tk.Level != criticality.LevelB && tk.Level != criticality.LevelC {
				t.Errorf("unexpected level %v", tk.Level)
			}
		}
		d := s.Dual()
		if d.HI != criticality.LevelB || d.LO != criticality.LevelC {
			t.Errorf("Dual = %v", d)
		}
	}
}

func TestTaskSetDeterministicPerSeed(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.5, 1e-5)
	a, err := TaskSet(rand.New(rand.NewSource(42)), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TaskSet(rand.New(rand.NewSource(42)), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Tasks() {
		if a.Tasks()[i] != b.Tasks()[i] {
			t.Errorf("task %d differs", i)
		}
	}
}

func TestTaskSetRejectsBadParams(t *testing.T) {
	if _, err := TaskSet(rand.New(rand.NewSource(1)), Params{}); err == nil {
		t.Error("expected error")
	}
}

// Table 4 conformance of the FMS generator.
func TestFMSConformsToTable4(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := FMSAt(seed)
		if s.Len() != 11 {
			t.Fatalf("seed %d: %d tasks, want 11", seed, s.Len())
		}
		wantPeriods := []int64{5000, 200, 1000, 1600, 100, 1000, 1000, 1000, 1000, 1000, 1000}
		for i, tk := range s.Tasks() {
			if tk.Period != timeunit.Milliseconds(wantPeriods[i]) {
				t.Errorf("seed %d τ%d: T = %v, want %dms", seed, i+1, tk.Period, wantPeriods[i])
			}
			if !tk.Implicit() {
				t.Errorf("seed %d τ%d: not implicit-deadline", seed, i+1)
			}
			if tk.FailProb != FMSFailProb {
				t.Errorf("seed %d τ%d: f = %g", seed, i+1, tk.FailProb)
			}
			cMax := timeunit.Milliseconds(20)
			wantLevel := criticality.LevelB
			if i >= 7 {
				cMax = timeunit.Milliseconds(200)
				wantLevel = criticality.LevelC
			}
			if tk.Level != wantLevel {
				t.Errorf("seed %d τ%d: level %v, want %v", seed, i+1, tk.Level, wantLevel)
			}
			if tk.WCET < timeunit.Milliseconds(1) || tk.WCET > cMax {
				t.Errorf("seed %d τ%d: C = %v out of (0, %v]", seed, i+1, tk.WCET, cMax)
			}
		}
		if d := s.Dual(); d.HI != criticality.LevelB || d.LO != criticality.LevelC {
			t.Errorf("seed %d: Dual = %v", seed, d)
		}
	}
}

func TestFMSSeedsDeterministic(t *testing.T) {
	a, b := FMSAt(DefaultFMSKillSeed), FMSAt(DefaultFMSKillSeed)
	for i := range a.Tasks() {
		if a.Tasks()[i] != b.Tasks()[i] {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
	k, d := FMSAt(DefaultFMSKillSeed), FMSAt(DefaultFMSDegradeSeed)
	same := true
	for i := range k.Tasks() {
		if k.Tasks()[i] != d.Tasks()[i] {
			same = false
		}
	}
	if same {
		t.Error("kill and degrade instances should differ")
	}
}
