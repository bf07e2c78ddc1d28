package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

func ms(v int64) timeunit.Time { return timeunit.Milliseconds(v) }

// example31 builds the Example 3.1 task set; loLevel selects the LO
// criticality level (D in the paper's main line, C in its what-if).
func example31(loLevel criticality.Level) *task.Set {
	mk := func(name string, T, C int64, l criticality.Level) task.Task {
		return task.Task{Name: name, Period: ms(T), Deadline: ms(T), WCET: ms(C), Level: l, FailProb: 1e-5}
	}
	return task.MustNewSet([]task.Task{
		mk("τ1", 60, 5, criticality.LevelB),
		mk("τ2", 25, 4, criticality.LevelB),
		mk("τ3", 40, 7, loLevel),
		mk("τ4", 90, 6, loLevel),
		mk("τ5", 70, 8, loLevel),
	})
}

func TestProfilesValidate(t *testing.T) {
	if err := (Profiles{NHI: 3, NLO: 1, NPrime: 2}).Validate(); err != nil {
		t.Errorf("valid profiles rejected: %v", err)
	}
	for _, p := range []Profiles{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if err := p.Validate(); err == nil {
			t.Errorf("profiles %+v accepted", p)
		}
	}
	if got := (Profiles{3, 1, 2}).String(); got != "n_HI=3 n_LO=1 n'_HI=2" {
		t.Errorf("String = %q", got)
	}
}

// Example 4.1 / Table 3: converting Example 3.1 with n_HI = 3, n_LO = 1,
// n′_HI = 2 yields C(HI) = 3C, C(LO) = 2C for the HI tasks and C for the
// LO tasks.
func TestConvertTable3(t *testing.T) {
	s := example31(criticality.LevelD)
	conv := MustConvert(s, Profiles{NHI: 3, NLO: 1, NPrime: 2})
	want := []struct {
		name     string
		chi, clo int64
		class    criticality.Class
	}{
		{"τ1", 15, 10, criticality.HI},
		{"τ2", 12, 8, criticality.HI},
		{"τ3", 7, 7, criticality.LO},
		{"τ4", 6, 6, criticality.LO},
		{"τ5", 8, 8, criticality.LO},
	}
	for i, w := range want {
		got := conv.Tasks()[i]
		if got.Name != w.name || got.CHI != ms(w.chi) || got.CLO != ms(w.clo) || got.Class != w.class {
			t.Errorf("task %d = %v, want C(HI)=%dms C(LO)=%dms %v", i, got, w.chi, w.clo, w.class)
		}
	}
	if !(mcsched.EDFVD{}).Schedulable(conv) {
		t.Error("Table 3 must be EDF-VD schedulable (Example 4.1)")
	}
}

func TestConvertClampsNPrime(t *testing.T) {
	s := example31(criticality.LevelD)
	conv := MustConvert(s, Profiles{NHI: 3, NLO: 1, NPrime: 5})
	hi := conv.Tasks()[0]
	if hi.CLO != hi.CHI {
		t.Errorf("n' > n_HI should clamp C(LO) to C(HI), got %v", hi)
	}
}

func TestConvertRejectsBadProfiles(t *testing.T) {
	s := example31(criticality.LevelD)
	if _, err := Convert(s, Profiles{NHI: 0, NLO: 1, NPrime: 1}); err == nil {
		t.Error("expected error")
	}
}

func TestMustConvertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustConvert(example31(criticality.LevelD), Profiles{})
}

// The paper's main line on Example 3.1 (LO level D): FT-EDF-VD succeeds
// with n_HI = 3, n_LO = 1 and killing profile n′_HI = 2.
func TestFTEDFVDExample31(t *testing.T) {
	s := example31(criticality.LevelD)
	res, err := FTEDFVD(s, safety.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("expected SUCCESS, got %v", res)
	}
	if res.NHI != 3 || res.NLO != 1 {
		t.Errorf("re-execution profiles n_HI=%d n_LO=%d, want 3/1", res.NHI, res.NLO)
	}
	if res.N1HI != 1 {
		t.Errorf("n¹_HI = %d, want 1 (level D: no LO safety requirement)", res.N1HI)
	}
	if res.N2HI != 2 || res.Profiles.NPrime != 2 {
		t.Errorf("n²_HI = %d n'_HI = %d, want 2 (Table 3 schedulable, n'=3 over-utilized)", res.N2HI, res.Profiles.NPrime)
	}
	if relErr := math.Abs(res.PFHHI-2.04e-10) / 2.04e-10; relErr > 1e-6 {
		t.Errorf("pfh(HI) = %g, want 2.04e-10", res.PFHHI)
	}
	if res.PFHHI > criticality.LevelB.PFHRequirement() {
		t.Error("pfh(HI) violates level B")
	}
	if res.Converted == nil || res.Converted.Len() != 5 {
		t.Error("converted set missing")
	}
	if !strings.Contains(res.String(), "SUCCESS") {
		t.Errorf("String = %q", res.String())
	}
}

// The paper's what-if (§3.2): if the LO tasks were level C, killing them
// is not viable — their PFH requirement survives the kill analysis only
// with an adaptation profile larger than n_HI.
func TestFTEDFVDExample31LevelC(t *testing.T) {
	s := example31(criticality.LevelC)
	res, err := FTEDFVD(s, safety.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("expected FAILURE for LO=C under killing, got %v", res)
	}
	if res.Reason != FailSafetyAdapt {
		t.Errorf("Reason = %q, want %q", res.Reason, FailSafetyAdapt)
	}
	if !strings.Contains(res.String(), "FAILURE") {
		t.Errorf("String = %q", res.String())
	}
}

// With LO=C and degradation, safety is easy (n¹_HI = 1) but the converted
// set (n_LO = 3 triples the LO utilization) is not schedulable: the
// failure moves from safety to schedulability.
func TestFTEDFVDDegradeExample31LevelC(t *testing.T) {
	s := example31(criticality.LevelC)
	res, err := FTEDFVDDegrade(s, safety.DefaultConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("expected FAILURE, got %v", res)
	}
	if res.Reason != FailUnschedulable {
		t.Errorf("Reason = %q, want %q", res.Reason, FailUnschedulable)
	}
	if res.N1HI != 1 {
		t.Errorf("n¹_HI = %d, want 1 (degradation preserves LO safety)", res.N1HI)
	}
	if res.NLO != 3 {
		t.Errorf("n_LO = %d, want 3 (level C at f=1e-5 needs 3 attempts)", res.NLO)
	}
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	if err := good.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := []Options{
		{Safety: safety.Config{OperationHours: 0}, Mode: safety.Kill},
		{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 1},
		{Safety: safety.DefaultConfig(), Mode: safety.AdaptMode(7)},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
}

func TestOptionsDefaultTest(t *testing.T) {
	kill := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	if got := kill.test().Name(); got != "EDF-VD" {
		t.Errorf("default kill test = %q", got)
	}
	deg := Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6}
	if got := deg.test().Name(); !strings.Contains(got, "degrade") {
		t.Errorf("default degrade test = %q", got)
	}
	custom := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Test: mcsched.AMCrtb{}}
	if got := custom.test().Name(); got != "AMC-rtb" {
		t.Errorf("custom test = %q", got)
	}
}

func TestFTSRejectsBadOptions(t *testing.T) {
	s := example31(criticality.LevelD)
	if _, err := FTS(s, Options{Safety: safety.Config{}, Mode: safety.Kill}); err == nil {
		t.Error("expected error")
	}
}

// UMCKill must agree with eq. (10) applied to the converted set, for all
// n ≤ n_HI (where no clamping occurs).
func TestUMCKillMatchesConversion(t *testing.T) {
	s := example31(criticality.LevelD)
	for n := 1; n <= 3; n++ {
		formula := UMCKill(s, 3, 1, n)
		conv := MustConvert(s, Profiles{NHI: 3, NLO: 1, NPrime: n})
		direct := (mcsched.EDFVD{}).Bound(conv)
		if math.Abs(formula-direct) > 1e-12 {
			t.Errorf("n=%d: UMCKill=%v, EDF-VD bound=%v", n, formula, direct)
		}
	}
}

func TestUMCDegradeMatchesConversion(t *testing.T) {
	s := example31(criticality.LevelD)
	for n := 1; n <= 3; n++ {
		formula := UMCDegrade(s, 3, 1, n, 6)
		conv := MustConvert(s, Profiles{NHI: 3, NLO: 1, NPrime: n})
		direct := (mcsched.EDFVDDegrade{DF: 6}).Bound(conv)
		if math.Abs(formula-direct) > 1e-12 && !(math.IsInf(formula, 1) && math.IsInf(direct, 1)) {
			t.Errorf("n=%d: UMCDegrade=%v, bound=%v", n, formula, direct)
		}
	}
}

// UMC is increasing in the adaptation profile (Fig. 1/2: the utilization
// curve rises with n′_HI).
func TestUMCIncreasingInN(t *testing.T) {
	s := example31(criticality.LevelD)
	for _, mode := range []safety.AdaptMode{safety.Kill, safety.Degrade} {
		prev := 0.0
		for n := 1; n <= 4; n++ {
			cur := UMC(s, 3, 1, n, mode, 6)
			if cur < prev {
				t.Errorf("%v: UMC(%d) = %v < UMC(%d) = %v", mode, n, cur, n-1, prev)
			}
			prev = cur
		}
	}
}

func TestUMCInfCases(t *testing.T) {
	// LO tasks overloaded after re-execution scaling.
	s := example31(criticality.LevelD)
	if !math.IsInf(UMCKill(s, 3, 3, 1), 1) {
		t.Error("UMCKill should be +Inf when n_LO·U_LO >= 1")
	}
	if !math.IsInf(UMCDegrade(s, 3, 3, 1, 6), 1) {
		t.Error("UMCDegrade should be +Inf when n_LO·U_LO >= 1")
	}
	// λ(3) = 3·U_HI/(1 − U_LO) ≈ 1.13 ≥ 1: degraded-mode term blows up.
	if !math.IsInf(UMCDegrade(s, 3, 1, 3, 6), 1) {
		t.Error("UMCDegrade should be +Inf when λ(n) >= 1")
	}
}

func TestUMCDegradePanicsOnBadDF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UMCDegrade(example31(criticality.LevelD), 3, 1, 1, 0.5)
}

// MaxSchedulableAdapt (closed form, line 12 of Algorithm 2) must agree
// with the generic conversion-based search of FTS.
func TestMaxSchedulableAdaptMatchesGenericSearch(t *testing.T) {
	s := example31(criticality.LevelD)
	nHI, nLO := 3, 1
	want := 0
	for n := nHI; n >= 1; n-- {
		if (mcsched.EDFVD{}).Schedulable(MustConvert(s, Profiles{NHI: nHI, NLO: nLO, NPrime: n})) {
			want = n
			break
		}
	}
	if got := MaxSchedulableAdapt(s, nHI, nLO, safety.Kill, 0); got != want {
		t.Errorf("MaxSchedulableAdapt = %d, generic search = %d", got, want)
	}
	if got := MaxSchedulableAdapt(s, nHI, nLO, safety.Kill, 0); got != 2 {
		t.Errorf("MaxSchedulableAdapt = %d, want 2 (Example 4.1)", got)
	}
}

func TestMaxSchedulableAdaptZeroWhenHopeless(t *testing.T) {
	// Crank the LO load so nothing fits even at n' = 1.
	mk := func(name string, T, C int64, l criticality.Level) task.Task {
		return task.Task{Name: name, Period: ms(T), Deadline: ms(T), WCET: ms(C), Level: l, FailProb: 1e-5}
	}
	s := task.MustNewSet([]task.Task{
		mk("hi", 10, 4, criticality.LevelB),
		mk("lo", 10, 7, criticality.LevelD),
	})
	if got := MaxSchedulableAdapt(s, 3, 1, safety.Kill, 0); got != 0 {
		t.Errorf("MaxSchedulableAdapt = %d, want 0", got)
	}
}

// FTS with the fixed-priority tests (Appendix B remark): AMC-rtb must
// also solve Example 3.1.
func TestFTSWithAlternativeSchedulers(t *testing.T) {
	s := example31(criticality.LevelD)
	for _, test := range []mcsched.Test{mcsched.AMCrtb{}, mcsched.SMC{}} {
		res, err := FTS(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Test: test})
		if err != nil {
			t.Fatalf("%s: %v", test.Name(), err)
		}
		if res.TestName != test.Name() {
			t.Errorf("TestName = %q", res.TestName)
		}
		// AMC-rtb accepts Example 3.1 (killing frees the LO load); SMC
		// cannot (it keeps the full 3C interference) — but both must at
		// least agree with their own direct verdicts on the converted set.
		if res.OK {
			if !test.Schedulable(res.Converted) {
				t.Errorf("%s: FTS succeeded on a set its own test rejects", test.Name())
			}
		}
	}
}
