package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// Differential and property tests of the incremental FT-S inner-loop
// engine: the bisected n′ scans are pinned to the reference linear scans
// (same n¹/n²/verdict) and the delta-patched conversion to the full
// rebuild (bit-identical sets) — and the monotonicity the bisections rely
// on is itself asserted, not assumed.

// diffSets draws seeded random sets across utilizations, ≥200 in total.
func diffSets(tb testing.TB) []*task.Set {
	tb.Helper()
	var sets []*task.Set
	for _, u := range []float64{0.6, 0.85, 0.95} {
		sets = append(sets, randomSets(tb, 70, u)...)
	}
	return sets
}

// minAdaptLinear is the reference linear scan of line 4 over the public
// single-profile probe: the first n′ whose pfh(LO) meets the
// requirement, at most MaxProfile probes.
func minAdaptLinear(cache *safety.AdaptationCache, mode safety.AdaptMode, nLO int, df, requirement float64) (int, error) {
	for n := 1; n <= safety.MaxProfile; n++ {
		pfh, err := cache.PFHLOUniform(mode, nLO, n, df)
		if err != nil {
			return 0, err
		}
		if pfh < requirement {
			return n, nil
		}
	}
	return 0, fmt.Errorf("no adaptation profile <= %d keeps pfh(LO) below %g", safety.MaxProfile, requirement)
}

// ftsLinearRef mirrors FTS with both inner scans linear: the line-4
// search via minAdaptLinear and the line-8 search via
// maxSchedProfileLinear, each conversion a full rebuild.
func ftsLinearRef(s *task.Set, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	test := opt.test()
	res := Result{TestName: test.Name()}
	cfg := opt.Safety
	dual := s.Dual()
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	cache := safety.NewAdaptationCache(cfg, hi, lo)

	nHI, err := cfg.MinReexecProfile(hi, dual.Requirement(criticality.HI))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	res.NHI = nHI
	nLO, err := cfg.MinReexecProfile(lo, dual.Requirement(criticality.LO))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	res.NLO = nLO

	n1, err := minAdaptLinear(cache, opt.Mode, nLO, opt.DF, dual.Requirement(criticality.LO))
	if err != nil {
		res.N1HI = safety.MaxProfile + 1
		res.Reason = FailSafetyAdapt
		return res, nil
	}
	res.N1HI = n1
	if n1 > nHI {
		res.Reason = FailSafetyAdapt
		return res, nil
	}

	n2, err := maxSchedProfileLinear(s, nil, test, Profiles{NHI: nHI, NLO: nLO, NPrime: nHI})
	if err != nil {
		return Result{}, err
	}
	res.N2HI = n2
	if n2 == 0 || n1 > n2 {
		res.Reason = FailUnschedulable
		return res, nil
	}
	res.OK = true
	res.Profiles = Profiles{NHI: nHI, NLO: nLO, NPrime: n2}
	res.Converted, err = Convert(s, res.Profiles)
	if err != nil {
		return Result{}, err
	}
	res.PFHHI = cfg.PlainPFHUniform(hi, nHI)
	res.PFHLO, err = cache.PFHLOUniform(opt.Mode, nLO, n2, opt.DF)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

func TestFTSBisectionDifferential(t *testing.T) {
	scr := NewScratch()
	sets := diffSets(t)
	for _, mode := range []struct {
		m  safety.AdaptMode
		df float64
	}{{safety.Kill, 0}, {safety.Degrade, 2}} {
		opt := Options{Safety: safety.DefaultConfig(), Mode: mode.m, DF: mode.df}
		for i, s := range sets {
			want, err := ftsLinearRef(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			optScr := opt
			optScr.Scratch = scr
			got, err := FTS(s, optScr)
			if err != nil {
				t.Fatal(err)
			}
			got.Converted, want.Converted = nil, nil
			if got != want {
				t.Fatalf("set %d (%v): bisected FTS diverged from linear reference:\n got %+v\nwant %+v",
					i, mode.m, got, want)
			}
		}
	}
}

// ftsPerTaskLinearRef mirrors FTSPerTask with linear n¹/n² scans.
func ftsPerTaskLinearRef(s *task.Set, opt Options) (PerTaskResult, error) {
	if err := opt.Validate(); err != nil {
		return PerTaskResult{}, err
	}
	test := opt.test()
	res := PerTaskResult{TestName: test.Name()}
	cfg := opt.Safety
	dual := s.Dual()
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	cache := safety.NewAdaptationCache(cfg, hi, lo)

	nsHI, err := OptimizeReexecProfiles(cfg, hi, dual.Requirement(criticality.HI))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	nsLO, err := OptimizeReexecProfiles(cfg, lo, dual.Requirement(criticality.LO))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	ns := make([]int, s.Len())
	ih, il := 0, 0
	maxHI := 1
	for i, tk := range s.Tasks() {
		if s.Class(tk) == criticality.HI {
			ns[i] = nsHI[ih]
			if ns[i] > maxHI {
				maxHI = ns[i]
			}
			ih++
		} else {
			ns[i] = nsLO[il]
			il++
		}
	}
	res.Reexec = ns

	n1, err := minAdaptPerTaskLinear(cfg, opt, cache, lo, nsLO, dual.Requirement(criticality.LO))
	if err != nil {
		res.N1HI = safety.MaxProfile + 1
		res.Reason = FailSafetyAdapt
		return res, nil
	}
	res.N1HI = n1
	if n1 > maxHI {
		res.Reason = FailSafetyAdapt
		return res, nil
	}

	n2, err := maxSchedProfilePerTaskLinear(s, test, ns, maxHI)
	if err != nil {
		return PerTaskResult{}, err
	}
	res.N2HI = n2
	if n2 == 0 || n1 > n2 {
		res.Reason = FailUnschedulable
		return res, nil
	}
	res.OK = true
	res.NPrime = n2
	res.Converted, err = ConvertPerTask(s, ns, n2)
	if err != nil {
		return PerTaskResult{}, err
	}
	res.PFHHI = cfg.PlainPFH(hi, nsHI)
	adapt, err := cache.Uniform(n2)
	if err != nil {
		return PerTaskResult{}, err
	}
	switch opt.Mode {
	case safety.Kill:
		res.PFHLO = cfg.KillingPFHLO(lo, nsLO, adapt)
	case safety.Degrade:
		res.PFHLO = cfg.DegradationPFHLO(lo, nsLO, adapt, opt.DF)
	}
	return res, nil
}

func TestFTSPerTaskBisectionDifferential(t *testing.T) {
	scr := NewScratch()
	sets := diffSets(t)
	for _, mode := range []struct {
		m  safety.AdaptMode
		df float64
	}{{safety.Kill, 0}, {safety.Degrade, 2}} {
		opt := Options{Safety: safety.DefaultConfig(), Mode: mode.m, DF: mode.df}
		for i, s := range sets {
			want, err := ftsPerTaskLinearRef(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			optScr := opt
			optScr.Scratch = scr
			got, err := FTSPerTask(s, optScr)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Reexec) != len(want.Reexec) {
				t.Fatalf("set %d: profile length %d vs %d", i, len(got.Reexec), len(want.Reexec))
			}
			for j := range got.Reexec {
				if got.Reexec[j] != want.Reexec[j] {
					t.Fatalf("set %d (%v): profile %d diverged: got %v want %v",
						i, mode.m, j, got.Reexec, want.Reexec)
				}
			}
			got.Reexec, want.Reexec = nil, nil
			got.Converted, want.Converted = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d (%v): bisected FTSPerTask diverged from linear reference:\n got %+v\nwant %+v",
					i, mode.m, got, want)
			}
		}
	}
}

// TestDeltaPatchMatchesConvert pins the delta-patched conversion to the
// full rebuild: after arbitrary patch sequences (not just descending n′),
// every field of every task and every cached utilization sum must be
// bit-identical to a freshly converted set.
func TestDeltaPatchMatchesConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	scr := NewScratch()
	sets := diffSets(t)
	if len(sets) < 200 {
		t.Fatalf("need >= 200 sets, got %d", len(sets))
	}
	sameSet := func(i int, got, want *mcsched.MCSet) {
		t.Helper()
		gt, wt := got.Tasks(), want.Tasks()
		if len(gt) != len(wt) {
			t.Fatalf("set %d: %d vs %d tasks", i, len(gt), len(wt))
		}
		for j := range gt {
			if gt[j] != wt[j] {
				t.Fatalf("set %d task %d: patched %+v vs rebuilt %+v", i, j, gt[j], wt[j])
			}
		}
		for _, class := range []criticality.Class{criticality.LO, criticality.HI} {
			for _, mode := range []criticality.Class{criticality.LO, criticality.HI} {
				if g, w := got.Util(class, mode), want.Util(class, mode); g != w {
					t.Fatalf("set %d: U_%v^%v patched %.17g vs rebuilt %.17g", i, class, mode, g, w)
				}
			}
		}
	}
	for i, s := range sets {
		nHI, nLO := 1+rng.Intn(4), 1+rng.Intn(3)
		if _, err := scr.convert(s, Profiles{NHI: nHI, NLO: nLO, NPrime: nHI}); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 5; probe++ {
			n := 1 + rng.Intn(nHI+1) // includes the n′ > n_HI clamp corner
			got := scr.patchNPrime(s, nHI, n)
			want, err := Convert(s, Profiles{NHI: nHI, NLO: nLO, NPrime: n})
			if err != nil {
				t.Fatal(err)
			}
			sameSet(i, got, want)
		}

	}
}

// TestSchedulabilityDownwardClosedInNPrime pins the bisection
// precondition of the line-8 search: over n′ = 1..n_HI the verdict
// sequence of a monotone MC test is true…true false…false — schedulable
// at n′ implies schedulable at every smaller profile.
func TestSchedulabilityDownwardClosedInNPrime(t *testing.T) {
	tests := []mcsched.Test{mcsched.EDFVD{}, mcsched.EDFVDDegrade{DF: 2}, mcsched.SMC{}, mcsched.AMCrtb{}}
	for i, s := range diffSets(t) {
		const nHI, nLO = 4, 2
		for _, test := range tests {
			seenFail := false
			for n := 1; n <= nHI; n++ {
				conv, err := Convert(s, Profiles{NHI: nHI, NLO: nLO, NPrime: n})
				if err != nil {
					t.Fatal(err)
				}
				ok := test.Schedulable(conv)
				if ok && seenFail {
					t.Fatalf("set %d (%s): schedulable at n'=%d after failing at a smaller n'",
						i, test.Name(), n)
				}
				if !ok {
					seenFail = true
				}
			}
		}
	}
}

// TestSupSchedulable pins the line-8 search on synthetic downward-closed
// predicates: the sup of the schedulable prefix of [1, nMax] (0 when
// empty), one probe when nMax itself is schedulable, at most
// ⌈log₂ nMax⌉ + 2 probes otherwise, and a probe error returned as is.
func TestSupSchedulable(t *testing.T) {
	run := func(nMax, sup int) (got, probes int, err error) {
		got, err = supSchedulable(nMax, func(n int) (bool, error) {
			if n < 1 || n > nMax {
				t.Fatalf("nMax=%d: probe at %d outside [1, nMax]", nMax, n)
			}
			probes++
			return n <= sup, nil
		})
		return got, probes, err
	}
	for _, tc := range []struct {
		name              string
		nMax, sup, probes int
	}{
		{"never schedulable", 6, 0, 3},
		{"schedulable only at 1", 6, 1, 4},
		{"schedulable at nMax", 6, 6, 1},
		{"nMax 1 unschedulable", 1, 0, 1},
		{"nMax 1 schedulable", 1, 1, 1},
	} {
		got, probes, err := run(tc.nMax, tc.sup)
		if err != nil || got != tc.sup || probes != tc.probes {
			t.Errorf("%s: got %d after %d probes (%v), want %d after %d",
				tc.name, got, probes, err, tc.sup, tc.probes)
		}
	}
	for nMax := 1; nMax <= safety.MaxProfile; nMax++ {
		for sup := 0; sup <= nMax; sup++ {
			got, probes, err := run(nMax, sup)
			if err != nil || got != sup {
				t.Fatalf("nMax=%d sup=%d: got %d (%v)", nMax, sup, got, err)
			}
			if limit := bits.Len(uint(nMax-1)) + 2; probes > limit {
				t.Fatalf("nMax=%d sup=%d: %d probes, want <= %d", nMax, sup, probes, limit)
			}
		}
	}
	boom := errors.New("boom")
	if _, err := supSchedulable(8, func(int) (bool, error) { return false, boom }); err != boom {
		t.Errorf("probe error: got %v, want %v", err, boom)
	}
}

// TestFTSPerTaskUniformMatchesFTS checks that the two front ends share
// one engine: whenever FTSPerTask's greedy hands every HI task FTS's n_HI
// and every LO task its n_LO, lines 4–15 see the same inputs, so the
// verdict, both adaptation profiles and the bits of both bounds must
// agree.
func TestFTSPerTaskUniformMatchesFTS(t *testing.T) {
	setsPerPoint := 40
	if testing.Short() {
		setsPerPoint = 10
	}
	compared, pairs := 0, 0
	for _, lo := range []criticality.Level{criticality.LevelD, criticality.LevelC} {
		for _, u := range []float64{0.5, 0.7, 0.85, 0.95} {
			p := gen.PaperParams(criticality.LevelB, lo, u, 1e-5)
			for i := int64(0); i < int64(setsPerPoint); i++ {
				s, err := gen.TaskSet(rand.New(rand.NewSource(7000+i)), p)
				if err != nil {
					continue
				}
				for _, opt := range []Options{
					{Safety: safety.DefaultConfig(), Mode: safety.Kill},
					{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6},
				} {
					pairs++
					uni, err := FTS(s, opt)
					if err != nil {
						t.Fatal(err)
					}
					per, err := FTSPerTask(s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !uniformAssignment(s, per.Reexec, uni.NHI, uni.NLO) {
						continue
					}
					compared++
					if per.OK != uni.OK || per.Reason != uni.Reason || per.N1HI != uni.N1HI ||
						per.N2HI != uni.N2HI || per.NPrime != uni.Profiles.NPrime ||
						math.Float64bits(per.PFHHI) != math.Float64bits(uni.PFHHI) ||
						math.Float64bits(per.PFHLO) != math.Float64bits(uni.PFHLO) {
						t.Fatalf("LO=%v U=%g set %d %v: per-task %+v\nuniform %+v", lo, u, i, opt.Mode, per, uni)
					}
				}
			}
		}
	}
	t.Logf("%d of %d (set, mode) pairs had a uniform per-task assignment", compared, pairs)
	if compared < pairs/2 {
		t.Fatal("too few uniform assignments to compare")
	}
}

// uniformAssignment reports whether the per-task profiles ns give every
// HI task nHI and every LO task nLO.
func uniformAssignment(s *task.Set, ns []int, nHI, nLO int) bool {
	if len(ns) != s.Len() {
		return false
	}
	for i, tk := range s.Tasks() {
		want := nLO
		if s.Class(tk) == criticality.HI {
			want = nHI
		}
		if ns[i] != want {
			return false
		}
	}
	return true
}
