package safety

import (
	"math"
	"testing"

	"repro/internal/criticality"
	"repro/internal/task"
	"repro/internal/timeunit"
)

func ms(v int64) timeunit.Time { return timeunit.Milliseconds(v) }

func mkTask(name string, T, C int64, l criticality.Level, f float64) task.Task {
	return task.Task{Name: name, Period: ms(T), Deadline: ms(T), WCET: ms(C), Level: l, FailProb: f}
}

// example31 is the task set of Example 3.1 / Table 2 (f = 1e-5 for all).
func example31() *task.Set {
	return task.MustNewSet([]task.Task{
		mkTask("τ1", 60, 5, criticality.LevelB, 1e-5),
		mkTask("τ2", 25, 4, criticality.LevelB, 1e-5),
		mkTask("τ3", 40, 7, criticality.LevelD, 1e-5),
		mkTask("τ4", 90, 6, criticality.LevelD, 1e-5),
		mkTask("τ5", 70, 8, criticality.LevelD, 1e-5),
	})
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := Config{OperationHours: 0}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for OS=0")
	}
}

// TestConfigValidateHorizonOverflow pins the upper bound on OS: the
// longest operation duration whose horizon fits int64 microseconds is
// valid, and one hour more, which would wrap Horizon negative, is not.
func TestConfigValidateHorizonOverflow(t *testing.T) {
	for _, tc := range []struct {
		hours int
		valid bool
	}{
		{10, true},
		{2_562_047_788, true},
		{2_562_047_789, false},
		{math.MaxInt, false},
	} {
		c := Config{OperationHours: tc.hours, AssumeFullWCET: true}
		err := c.Validate()
		if (err == nil) != tc.valid {
			t.Errorf("OS = %d h: Validate() = %v, want valid=%v", tc.hours, err, tc.valid)
		}
		if err == nil && c.Horizon() <= 0 {
			t.Errorf("OS = %d h validated but Horizon() = %d", tc.hours, c.Horizon())
		}
	}
}

func TestHorizon(t *testing.T) {
	c := Config{OperationHours: 10, AssumeFullWCET: true}
	if got := c.Horizon(); got != timeunit.Hours(10) {
		t.Errorf("Horizon = %v", got)
	}
}

// Eq. (1) on Example 3.1: with n = 3, τ1 fits 60000 rounds per hour and
// τ2 fits 144000.
func TestRoundsExample31(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	hour := timeunit.Hours(1)
	if got := c.Rounds(s.Tasks()[0], 3, hour); got != 60000 {
		t.Errorf("r(τ1, 3, 1h) = %d, want 60000", got)
	}
	if got := c.Rounds(s.Tasks()[1], 3, hour); got != 144000 {
		t.Errorf("r(τ2, 3, 1h) = %d, want 144000", got)
	}
}

func TestRoundsEdgeCases(t *testing.T) {
	c := DefaultConfig()
	tk := mkTask("x", 10, 4, criticality.LevelB, 1e-5)
	// Horizon shorter than one round: zero rounds.
	if got := c.Rounds(tk, 3, ms(11)); got != 0 {
		t.Errorf("Rounds(11ms) = %d, want 0", got)
	}
	// Exactly one round: t = n·C.
	if got := c.Rounds(tk, 3, ms(12)); got != 1 {
		t.Errorf("Rounds(12ms) = %d, want 1", got)
	}
	// (k−1)·T + n·C accommodates exactly k rounds.
	if got := c.Rounds(tk, 3, ms(10+12)); got != 2 {
		t.Errorf("Rounds(22ms) = %d, want 2", got)
	}
	if got := c.Rounds(tk, 3, ms(10+12-1)); got != 1 {
		t.Errorf("Rounds(21ms) = %d, want 1", got)
	}
	if got := c.Rounds(tk, 3, 0); got != 0 {
		t.Errorf("Rounds(0) = %d, want 0", got)
	}
}

func TestRoundsPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultConfig().Rounds(mkTask("x", 10, 1, criticality.LevelB, 0), 0, ms(100))
}

// Footnote 1: without the full-WCET assumption C is replaced by 0, which
// can only increase the round count.
func TestRoundsFootnote1(t *testing.T) {
	full := Config{OperationHours: 1, AssumeFullWCET: true}
	zero := Config{OperationHours: 1, AssumeFullWCET: false}
	tk := mkTask("x", 10, 4, criticality.LevelB, 1e-5)
	for _, h := range []timeunit.Time{0, ms(5), ms(12), ms(100), timeunit.Hours(1)} {
		f, z := full.Rounds(tk, 3, h), zero.Rounds(tk, 3, h)
		if z < f {
			t.Errorf("horizon %v: zero-C rounds %d < full-C rounds %d", h, z, f)
		}
	}
	if got := zero.Rounds(tk, 3, ms(11)); got != 2 {
		t.Errorf("zero-C Rounds(11ms) = %d, want 2", got)
	}
}

// The headline number of Example 3.1: with n_HI = 3 the HI-level PFH is
// 2.04e-10.
func TestExample31PlainPFH(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	got := c.PlainPFHClass(s, criticality.HI, 3)
	if relDiff(got, 2.04e-10) > 1e-9 {
		t.Errorf("pfh(HI) = %.6g, want 2.04e-10 (paper)", got)
	}
}

// Minimal re-execution profiles of Example 3.1: n_HI = 3 for any HI level
// in {A, B, C}; n_LO = 1 since D/E carry no requirement.
func TestExample31MinProfiles(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	hi := s.ByClass(criticality.HI)
	for _, level := range []criticality.Level{criticality.LevelA, criticality.LevelB, criticality.LevelC} {
		n, err := c.MinReexecProfile(hi, level.PFHRequirement())
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		if n != 3 {
			t.Errorf("level %v: n_HI = %d, want 3", level, n)
		}
	}
	nLO, err := c.MinReexecProfile(s.ByClass(criticality.LO), criticality.LevelD.PFHRequirement())
	if err != nil {
		t.Fatal(err)
	}
	if nLO != 1 {
		t.Errorf("n_LO = %d, want 1", nLO)
	}
}

func TestMinReexecProfileEmptyAndUnreachable(t *testing.T) {
	c := DefaultConfig()
	if n, err := c.MinReexecProfile(nil, 1e-9); err != nil || n != 1 {
		t.Errorf("empty group: n=%d err=%v", n, err)
	}
	// f extremely close to 1 with short period: requirement unreachable.
	hopeless := []task.Task{mkTask("h", 1, 1, criticality.LevelA, 0.999999)}
	if _, err := c.MinReexecProfile(hopeless, 1e-9); err == nil {
		t.Error("expected unreachable-profile error")
	}
}

func TestPlainPFHMonotoneInN(t *testing.T) {
	c := DefaultConfig()
	hi := example31().ByClass(criticality.HI)
	prev := math.Inf(1)
	for n := 1; n <= 8; n++ {
		cur := c.PlainPFHUniform(hi, n)
		if cur > prev {
			t.Errorf("pfh at n=%d (%g) exceeds n=%d (%g)", n, cur, n-1, prev)
		}
		prev = cur
	}
}

func TestPlainPFHZeroFailProb(t *testing.T) {
	c := DefaultConfig()
	tasks := []task.Task{mkTask("x", 10, 1, criticality.LevelA, 0)}
	if got := c.PlainPFHUniform(tasks, 1); got != 0 {
		t.Errorf("pfh = %g, want 0", got)
	}
}

func TestPlainPFHPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultConfig().PlainPFH(example31().Tasks(), []int{1, 2})
}

func TestAdaptationConstruction(t *testing.T) {
	c := DefaultConfig()
	hi := example31().ByClass(criticality.HI)
	if _, err := NewUniformAdaptation(c, hi, 2); err != nil {
		t.Errorf("uniform: %v", err)
	}
	if _, err := NewAdaptation(c, hi, []int{2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := NewAdaptation(c, hi, []int{2, 0}); err == nil {
		t.Error("expected n' >= 1 error")
	}
}

// Eq. (3) on Example 3.1 with n′ = 2: R(1h) = (1−1e-10)^60000·(1−1e-10)^144000,
// so the kill probability within an hour is ≈ 2.04e-5.
func TestAdaptProbExample31(t *testing.T) {
	c := DefaultConfig()
	hi := example31().ByClass(criticality.HI)
	adapt, err := NewUniformAdaptation(c, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := adapt.AdaptProb(timeunit.Hours(1))
	if relDiff(got, 2.04e-5) > 1e-4 {
		t.Errorf("1-R = %.6g, want ≈ 2.04e-5", got)
	}
	if r := adapt.SurvivalProb(timeunit.Hours(1)); math.Abs(r+got-1) > 1e-12 {
		t.Errorf("R + (1-R) = %g", r+got)
	}
}

// R decreases (kill probability increases) as time elapses — the remark
// after Lemma 3.2.
func TestAdaptProbMonotoneInTime(t *testing.T) {
	c := DefaultConfig()
	hi := example31().ByClass(criticality.HI)
	adapt, _ := NewUniformAdaptation(c, hi, 2)
	prev := -1.0
	for h := int64(1); h <= 10; h++ {
		cur := adapt.AdaptProb(timeunit.Hours(h))
		if cur < prev {
			t.Errorf("AdaptProb decreased from %g to %g at %dh", prev, cur, h)
		}
		prev = cur
	}
}

// Larger n′ ⇒ LO tasks killed less often ⇒ smaller kill probability.
func TestAdaptProbMonotoneInProfile(t *testing.T) {
	c := DefaultConfig()
	hi := example31().ByClass(criticality.HI)
	prev := math.Inf(1)
	for np := 1; np <= 4; np++ {
		adapt, _ := NewUniformAdaptation(c, hi, np)
		cur := adapt.AdaptProb(timeunit.Hours(1))
		if cur > prev {
			t.Errorf("AdaptProb(n'=%d) = %g > AdaptProb(n'=%d) = %g", np, cur, np-1, prev)
		}
		prev = cur
	}
}

// Hand-computed instance of eq. (5): one HI task (T = 0.5 h, C = 1 ms,
// f = 0.1, n′ = 1) and one LO task (T = 0.25 h, C = 1 ms, f = 0.2, n = 1),
// OS = 1 h. r_LO(1h) = 4, so π has terms α = t, and m = 1..3 with
// α = t − 1ms − m·T + D, i.e. {t, t−1ms, 2.7e9µs−1ms, 1.8e9µs−1ms}.
// r_HI = 2 at the first three (R = 0.81) and r_HI = 1 at the last
// (R = 0.9). Sum = 3·(1 − 0.81·0.8) + (1 − 0.9·0.8) = 1.336.
func TestKillingPFHLOHandComputed(t *testing.T) {
	c := DefaultConfig()
	hi := []task.Task{{Name: "hi", Period: timeunit.Hour / 2, Deadline: timeunit.Hour / 2,
		WCET: ms(1), Level: criticality.LevelB, FailProb: 0.1}}
	lo := []task.Task{{Name: "lo", Period: timeunit.Hour / 4, Deadline: timeunit.Hour / 4,
		WCET: ms(1), Level: criticality.LevelD, FailProb: 0.2}}
	adapt, err := NewUniformAdaptation(c, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := c.KillingPFHLOUniform(lo, 1, adapt)
	if relDiff(got, 1.336) > 1e-12 {
		t.Errorf("pfh(LO) = %.15g, want 1.336", got)
	}
}

// pfh(LO) under killing decreases with increasing n′ (discussion after
// Lemma 3.3).
func TestKillingPFHLOMonotoneInAdaptProfile(t *testing.T) {
	c := Config{OperationHours: 10, AssumeFullWCET: true}
	s := example31()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
	prev := math.Inf(1)
	for np := 1; np <= 4; np++ {
		adapt, _ := NewUniformAdaptation(c, hi, np)
		cur := c.KillingPFHLOUniform(lo, 1, adapt)
		if cur > prev+1e-18 {
			t.Errorf("killing pfh(LO) rose from %g (n'=%d) to %g (n'=%d)", prev, np-1, cur, np)
		}
		prev = cur
	}
}

// ω(df, t) decreases with df and matches a direct evaluation at df = 1.
func TestOmega(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	lo := s.ByClass(criticality.LO)
	ns := []int{1, 1, 1}
	hour := timeunit.Hours(1)
	w1 := c.Omega(lo, ns, 1, hour)
	// Direct eq. (2)-style evaluation at df = 1.
	want := 0.0
	for i, tk := range lo {
		want += float64(c.Rounds(tk, ns[i], hour)) * tk.FailProb
	}
	if relDiff(w1, want) > 1e-12 {
		t.Errorf("Omega(1) = %g, want %g", w1, want)
	}
	prev := w1
	for _, df := range []float64{1.5, 2, 6, 100} {
		cur := c.Omega(lo, ns, df, hour)
		if cur > prev {
			t.Errorf("Omega(df=%g) = %g rose above %g", df, cur, prev)
		}
		prev = cur
	}
}

func TestRoundsStretchedMatchesRoundsAtDfOne(t *testing.T) {
	c := DefaultConfig()
	for _, tk := range example31().Tasks() {
		for n := 1; n <= 3; n++ {
			for _, h := range []timeunit.Time{0, ms(100), timeunit.Hours(1)} {
				a := c.Rounds(tk, n, h)
				b := c.RoundsStretched(tk, n, 1, h)
				if a != b {
					t.Errorf("%s n=%d h=%v: Rounds=%d Stretched=%d", tk.Name, n, h, a, b)
				}
			}
		}
	}
}

func TestRoundsStretchedPanics(t *testing.T) {
	tk := mkTask("x", 10, 1, criticality.LevelB, 0)
	for _, f := range []func(){
		func() { DefaultConfig().RoundsStretched(tk, 0, 2, ms(1)) },
		func() { DefaultConfig().RoundsStretched(tk, 1, 0.5, ms(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Degradation never worsens safety relative to no adaptation: pfh(LO)
// under eq. (7) is at most the plain bound of eq. (2) (remark after
// Lemma 3.4).
func TestDegradationPFHLOBoundedByPlain(t *testing.T) {
	c := Config{OperationHours: 10, AssumeFullWCET: true}
	s := example31()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
	plainPerHour := c.PlainPFHUniform(lo, 1)
	for np := 1; np <= 4; np++ {
		adapt, _ := NewUniformAdaptation(c, hi, np)
		got := c.DegradationPFHLOUniform(lo, 1, adapt, 6)
		if got > plainPerHour*1.001 {
			t.Errorf("degradation pfh(LO) %g exceeds plain %g at n'=%d", got, plainPerHour, np)
		}
	}
}

// Degradation dominates killing on safety: for the same profiles the
// degradation bound is no larger than the killing bound (§5.1 finding).
func TestDegradationSaferThanKilling(t *testing.T) {
	c := Config{OperationHours: 10, AssumeFullWCET: true}
	s := example31()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
	for np := 1; np <= 4; np++ {
		adapt, _ := NewUniformAdaptation(c, hi, np)
		kill := c.KillingPFHLOUniform(lo, 1, adapt)
		degrade := c.DegradationPFHLOUniform(lo, 1, adapt, 6)
		if degrade > kill {
			t.Errorf("n'=%d: degradation pfh %g > killing pfh %g", np, degrade, kill)
		}
	}
}

func TestDegradationPFHLOPanicsOnBadDf(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	adapt, _ := NewUniformAdaptation(c, s.ByClass(criticality.HI), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.DegradationPFHLOUniform(s.ByClass(criticality.LO), 1, adapt, 1)
}

func TestMinAdaptProfile(t *testing.T) {
	c := Config{OperationHours: 10, AssumeFullWCET: true}
	s := example31()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)

	// LO is level D: no requirement, so n¹_HI = 1 in both modes.
	for _, mode := range []AdaptMode{Kill, Degrade} {
		n, err := c.MinAdaptProfile(mode, hi, lo, 1, 6, math.Inf(1))
		if err != nil || n != 1 {
			t.Errorf("%v: n=%d err=%v, want 1", mode, n, err)
		}
	}

	// Pretend LO were level C: killing must then use a larger profile than
	// degradation (or fail), since killing hurts safety much more.
	req := criticality.LevelC.PFHRequirement()
	nKill, errKill := c.MinAdaptProfile(Kill, hi, lo, 2, 6, req)
	nDeg, errDeg := c.MinAdaptProfile(Degrade, hi, lo, 2, 6, req)
	if errDeg != nil {
		t.Fatalf("degrade: %v", errDeg)
	}
	if errKill == nil && nKill < nDeg {
		t.Errorf("killing profile %d smaller than degradation profile %d", nKill, nDeg)
	}
}

func TestMinAdaptProfileUnknownMode(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	_, err := c.MinAdaptProfile(AdaptMode(9), s.ByClass(criticality.HI), s.ByClass(criticality.LO), 1, 6, 1e-5)
	if err == nil {
		t.Error("expected error for unknown mode")
	}
}

func TestAdaptModeString(t *testing.T) {
	if Kill.String() != "kill" || Degrade.String() != "degrade" {
		t.Errorf("mode strings: %v %v", Kill, Degrade)
	}
}

func TestKillingPFHLOPanicsOnMismatch(t *testing.T) {
	c := DefaultConfig()
	s := example31()
	adapt, _ := NewUniformAdaptation(c, s.ByClass(criticality.HI), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.KillingPFHLO(s.ByClass(criticality.LO), []int{1}, adapt)
}

// Eq. (4)/(5) with non-implicit deadlines: the π points shift by D − T
// relative to the implicit case, raising each R(α) (later finish ⇒ more
// accumulated kill probability). Hand-check against the implicit variant.
func TestKillingPFHLOArbitraryDeadlines(t *testing.T) {
	c := DefaultConfig()
	hi := []task.Task{{Name: "hi", Period: timeunit.Hour / 2, Deadline: timeunit.Hour / 2,
		WCET: ms(1), Level: criticality.LevelB, FailProb: 0.1}}
	adapt, err := NewUniformAdaptation(c, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := task.Task{Name: "lo", Period: timeunit.Hour / 4, Deadline: timeunit.Hour / 4,
		WCET: ms(1), Level: criticality.LevelD, FailProb: 0.2}
	implicit := c.KillingPFHLOUniform([]task.Task{base}, 1, adapt)

	// A later deadline (D = T + 0.2h) moves every m-point right: each
	// R(α) can only shrink, so the bound can only grow.
	late := base
	late.Deadline = base.Period + timeunit.Hour/5
	lateBound := c.KillingPFHLOUniform([]task.Task{late}, 1, adapt)
	if lateBound < implicit {
		t.Errorf("later deadlines should not lower the bound: %g < %g", lateBound, implicit)
	}
	// An earlier (constrained) deadline moves them left: bound can only
	// shrink.
	early := base
	early.Deadline = base.Period / 2
	earlyBound := c.KillingPFHLOUniform([]task.Task{early}, 1, adapt)
	if earlyBound > implicit {
		t.Errorf("earlier deadlines should not raise the bound: %g > %g", earlyBound, implicit)
	}
}

// The horizon-shorter-than-a-round edge: no π points, zero contribution.
func TestKillingPFHLONoRoundsFit(t *testing.T) {
	c := DefaultConfig()
	hi := []task.Task{mkTask("hi", 100, 1, criticality.LevelB, 0.1)}
	adapt, _ := NewUniformAdaptation(c, hi, 1)
	// n·C = 2 hours > the 1-hour horizon: r = 0.
	lo := []task.Task{{Name: "lo", Period: timeunit.Hours(3), Deadline: timeunit.Hours(3),
		WCET: timeunit.Hours(2), Level: criticality.LevelD, FailProb: 0.5}}
	if got := c.KillingPFHLOUniform(lo, 1, adapt); got != 0 {
		t.Errorf("pfh = %g, want 0 when no round fits", got)
	}
}

// Footnote 1 in the killing analysis: dropping the full-WCET assumption
// (C → 0 in eq. 4) can only increase the bound.
func TestKillingPFHLOFootnote1Conservative(t *testing.T) {
	full := Config{OperationHours: 1, AssumeFullWCET: true}
	zero := Config{OperationHours: 1, AssumeFullWCET: false}
	s := example31()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
	for np := 1; np <= 3; np++ {
		aFull, _ := NewUniformAdaptation(full, hi, np)
		aZero, _ := NewUniformAdaptation(zero, hi, np)
		bFull := full.KillingPFHLOUniform(lo, 1, aFull)
		bZero := zero.KillingPFHLOUniform(lo, 1, aZero)
		if bZero < bFull {
			t.Errorf("n'=%d: zero-C bound %g below full-C bound %g", np, bZero, bFull)
		}
	}
}
