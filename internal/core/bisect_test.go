package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// Differential and property tests of the incremental FT-S inner-loop
// engine: the bisected n′ scans are pinned to the reference linear scans
// (same n¹/n²/verdict), the delta-patched conversion to the full rebuild
// (bit-identical sets), and the heap greedy to the rescanning greedy
// (identical assignments) — and the monotonicity the bisections rely on
// is itself asserted, not assumed.

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
	switch opt.Mode {
	case safety.Kill:
		res.PFHLO, err = cache.KillingPFHLOUniform(nLO, n2)
	case safety.Degrade:
		res.PFHLO, err = cache.DegradationPFHLOUniform(nLO, n2, opt.DF)
	}
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

// ftsPerTaskLinearRef mirrors FTSPerTask with the rescanning greedy and
// linear n¹/n² scans.
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

	nsHI, err := optimizeReexecProfilesLinear(nil, cfg, hi, dual.Requirement(criticality.HI))
	if err != nil {
		res.Reason = FailReexecProfile
		return res, nil
	}
	nsLO, err := optimizeReexecProfilesLinear(nil, cfg, lo, dual.Requirement(criticality.LO))
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

// TestOptimizeReexecHeapDifferential pins the heap greedy with cached
// contributions to the reference rescanning greedy: identical assignments
// (bit-identical grant sequences) and identical failure behaviour across
// seeded sets and requirements.
func TestOptimizeReexecHeapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := safety.DefaultConfig()
	for i, s := range diffSets(t) {
		for _, tasks := range [][]task.Task{s.ByClass(criticality.HI), s.ByClass(criticality.LO)} {
			var requirement float64
			switch rng.Intn(5) {
			case 0:
				requirement = math.Inf(1)
			case 1:
				requirement = 0 // unattainable: exercises the error paths
			default:
				requirement = math.Pow(10, -4-8*rng.Float64())
			}
			got, errH := OptimizeReexecProfiles(cfg, tasks, requirement)
			want, errL := optimizeReexecProfilesLinear(nil, cfg, tasks, requirement)
			if (errH == nil) != (errL == nil) {
				t.Fatalf("set %d req %g: error divergence: heap %v vs linear %v", i, requirement, errH, errL)
			}
			if errH != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("set %d req %g: length %d vs %d", i, requirement, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("set %d req %g: heap %v vs linear %v", i, requirement, got, want)
				}
			}
		}
	}
}
