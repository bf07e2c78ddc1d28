package core

import (
	"fmt"

	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// Options parameterizes the FT-S algorithm.
type Options struct {
	// Safety holds the PFH analysis configuration (OS, footnote-1 choice).
	Safety safety.Config
	// Mode selects LO-task killing (§3.3) or service degradation (§3.4).
	Mode safety.AdaptMode
	// DF is the service degradation factor df > 1; only read in Degrade
	// mode.
	DF float64
	// Test is S: the conventional mixed-criticality schedulability test
	// applied to the converted task set. Nil defaults to EDF-VD in Kill
	// mode and EDF-VD-with-degradation in Degrade mode, the paper's
	// Appendix B instantiations.
	Test mcsched.Test
	// Cache, when non-nil, memoizes the adaptation models and pfh(LO)
	// bounds across FTS calls. It must have been built with
	// safety.NewAdaptationCache(Safety, hi, lo) (or rebound with Reset)
	// for the same Safety config and the same HI/LO task partition of the
	// set passed to FTS — sweeps that vary only the schedulability test S
	// or the degradation factor df can share one cache across every
	// design point.
	Cache *safety.AdaptationCache
	// Shared, when Cache is nil, resolves the adaptation cache from a
	// process-wide sharded pool keyed by the canonical analysis context
	// (safety.CacheShards), so concurrent workers — and successive design
	// points — evaluating the same set share one set of memoized bounds.
	// With neither Cache nor Shared, each call builds a fresh cache.
	Shared *safety.CacheShards
	// Scratch, when non-nil, is the conversion arena of line 8 (see
	// Scratch): FTS and FTSWithSafety rebuild the converted set in it
	// instead of allocating one per candidate profile, and leave
	// Result.Converted nil (rebuild it with Convert(s, Result.Profiles)
	// if needed). A Scratch must not be shared across goroutines.
	// FTSPerTask does not read it.
	Scratch *Scratch
}

// test resolves the default scheduling technique.
func (o Options) test() mcsched.Test {
	if o.Test != nil {
		return o.Test
	}
	if o.Mode == safety.Degrade {
		return mcsched.EDFVDDegrade{DF: o.DF}
	}
	return mcsched.EDFVD{}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if err := o.Safety.Validate(); err != nil {
		return err
	}
	switch o.Mode {
	case safety.Kill:
	case safety.Degrade:
		if o.DF <= 1 {
			return fmt.Errorf("core: degradation factor must be > 1, got %g", o.DF)
		}
	default:
		return fmt.Errorf("core: unknown adaptation mode %d", o.Mode)
	}
	return nil
}

// FailureReason classifies why FT-S signalled FAILURE.
type FailureReason string

const (
	// FailNone marks success.
	FailNone FailureReason = ""
	// FailReexecProfile: no re-execution profile meets a level's PFH
	// requirement (line 2 has no solution).
	FailReexecProfile FailureReason = "no re-execution profile meets the PFH requirement"
	// FailSafetyAdapt: the minimal safe adaptation profile exceeds the
	// re-execution profile, n¹_HI > n_HI (line 5): adapting the LO tasks
	// at any reachable trigger would violate their safety.
	FailSafetyAdapt FailureReason = "minimal safe adaptation profile exceeds n_HI"
	// FailUnschedulable: no adaptation profile makes the converted set
	// schedulable, or the schedulable profiles are all below n¹_HI
	// (line 13): safety and schedulability cannot be reconciled.
	FailUnschedulable FailureReason = "no adaptation profile is both safe and schedulable"
)

// Result reports the outcome of FT-S (Algorithm 1).
type Result struct {
	// OK is true iff the algorithm signalled SUCCESS: by Theorem 4.1 the
	// safety requirements of both levels and the schedulability of the
	// system are then satisfied.
	OK bool
	// Reason classifies the failure; FailNone on success.
	Reason FailureReason
	// NHI, NLO are the minimal re-execution profiles (line 2). Zero when
	// the corresponding search already failed.
	NHI, NLO int
	// N1HI is the minimal safe adaptation profile n¹_HI (line 4).
	N1HI int
	// N2HI is the maximal schedulable adaptation profile n²_HI (line 8);
	// 0 when no profile is schedulable.
	N2HI int
	// Profiles are the chosen profiles on success (n′_HI = n²_HI).
	Profiles Profiles
	// Converted is the conventional MC task set Γ(n_HI, n_LO, n′_HI)
	// scheduled by S, on success. Left nil when the call ran with
	// Options.Scratch, whose arena the next call reuses (rebuild with
	// Convert(s, Profiles) if needed).
	Converted *mcsched.MCSet
	// PFHHI and PFHLO are the achieved safety bounds on success.
	PFHHI, PFHLO float64
	// TestName records which scheduling technique S was used.
	TestName string
}

// String summarizes the result in one line.
func (r Result) String() string {
	if !r.OK {
		return fmt.Sprintf("FAILURE (%s): n_HI=%d n_LO=%d n¹_HI=%d n²_HI=%d", r.Reason, r.NHI, r.NLO, r.N1HI, r.N2HI)
	}
	return fmt.Sprintf("SUCCESS under %s: %v (pfh_HI=%.3g pfh_LO=%.3g)", r.TestName, r.Profiles, r.PFHHI, r.PFHLO)
}

// SafetyVerdict is the schedulability-test-independent half of Algorithm 1
// (lines 1–7): the minimal re-execution profiles, the minimal safe
// adaptation profile and the failure classification of the safety-only
// exits. FTSSafety produces it; FTSWithSafety completes the algorithm from
// it. The split exists so design-space sweeps that vary only the
// schedulability test S (internal/explore) compute the safety verdict once
// per (Mode, DF) and reuse it across every test.
type SafetyVerdict struct {
	// NHI, NLO are the minimal re-execution profiles (line 2); zero when
	// the corresponding search failed.
	NHI, NLO int
	// N1HI is the minimal safe adaptation profile n¹_HI (line 4);
	// safety.MaxProfile+1 when no finite profile is safe.
	N1HI int
	// Reason is FailNone when lines 1–7 passed, else the safety-side
	// failure.
	Reason FailureReason
}

// FTSSafety runs lines 1–7 of Algorithm 1: the per-level minimal
// re-execution profiles (eq. 2), the minimal safe adaptation profile
// (eq. 5 / eq. 7, found by the bisected line-4 search of
// safety.AdaptationCache.MinAdaptProfile) and the n¹_HI ≤ n_HI check.
// Nothing here depends on the schedulability test S.
func FTSSafety(s *task.Set, opt Options) (SafetyVerdict, error) {
	if err := opt.Validate(); err != nil {
		return SafetyVerdict{}, err
	}
	cache := opt.resolveCache(s)
	return ftsSafety(s, opt, cache)
}

func ftsSafety(s *task.Set, opt Options, cache *safety.AdaptationCache) (SafetyVerdict, error) {
	cfg := opt.Safety
	dual := s.Dual()
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	var sv SafetyVerdict

	// Lines 1–3: minimal re-execution profiles per criticality level.
	nHI, err := cfg.MinReexecProfile(hi, dual.Requirement(criticality.HI))
	if err != nil {
		sv.Reason = FailReexecProfile
		return sv, nil
	}
	sv.NHI = nHI
	nLO, err := cfg.MinReexecProfile(lo, dual.Requirement(criticality.LO))
	if err != nil {
		sv.Reason = FailReexecProfile
		return sv, nil
	}
	sv.NLO = nLO

	// Line 4: minimal adaptation profile preserving LO safety.
	n1, err := cache.MinAdaptProfile(opt.Mode, nLO, opt.DF, dual.Requirement(criticality.LO))
	if err != nil {
		// No finite profile keeps pfh(LO) below the requirement: at least
		// as bad as n¹_HI > n_HI.
		sv.N1HI = safety.MaxProfile + 1
		sv.Reason = FailSafetyAdapt
		return sv, nil
	}
	sv.N1HI = n1

	// Lines 5–7.
	if n1 > nHI {
		sv.Reason = FailSafetyAdapt
	}
	return sv, nil
}

// resolveCache picks the adaptation cache FTS evaluates through: the
// explicit Options.Cache, else the sharded pool's cache for this
// context, else a fresh one.
func (o Options) resolveCache(s *task.Set) *safety.AdaptationCache {
	if o.Cache != nil {
		return o.Cache
	}
	hi := s.ByClass(criticality.HI)
	lo := s.ByClass(criticality.LO)
	if o.Shared != nil {
		return o.Shared.Get(o.Safety, hi, lo)
	}
	return safety.NewAdaptationCache(o.Safety, hi, lo)
}

// FTS runs Algorithm 1 on the dual-criticality task set:
//
//	line 1–3: n_χ ← inf{n : pfh(χ) ≤ PFH_χ}          (eq. 2)
//	line 4:   n¹_HI ← inf{n : pfh(LO) < PFH_LO}       (eq. 5 / eq. 7)
//	line 5–7: FAILURE if n¹_HI > n_HI
//	line 8:   n²_HI ← sup{n : Γ(n_HI, n_LO, n) schedulable by S}
//	line 9–15: SUCCESS with n′_HI = n²_HI if n¹_HI ≤ n²_HI, else FAILURE
//
// Both inner scans are bisected: pfh(LO) is non-increasing in n′
// (Lemma 3.3/3.4), and schedulability of Γ is downward-closed in n′ — a
// larger adaptation profile only inflates C(LO) of the HI tasks, so a set
// schedulable at n′ is schedulable at every smaller profile. Profiles
// above n_HI are behaviourally identical to n_HI (the trigger can never
// fire), so the sup is taken over [1, n_HI].
func FTS(s *task.Set, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	cache := opt.resolveCache(s)
	sv, err := ftsSafety(s, opt, cache)
	if err != nil {
		return Result{}, err
	}
	return ftsSchedule(s, opt, cache, sv)
}

// FTSWithSafety completes Algorithm 1 (lines 8–15) from a precomputed
// safety verdict — the cross-design reuse path: one FTSSafety per mode
// serves every schedulability test S. The verdict must come from
// FTSSafety on the same set and an Options value differing at most in
// Test or — in Degrade mode, where the eq. (7) bound does not read the
// degradation factor — in DF (explore and the df sensitivity sweep lean
// on exactly that).
func FTSWithSafety(s *task.Set, opt Options, sv SafetyVerdict) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	cache := opt.resolveCache(s)
	return ftsSchedule(s, opt, cache, sv)
}

func ftsSchedule(s *task.Set, opt Options, cache *safety.AdaptationCache, sv SafetyVerdict) (Result, error) {
	m := coreView.Get()
	m.ftsCalls.Inc()
	test := opt.test()
	res := Result{
		TestName: test.Name(),
		NHI:      sv.NHI, NLO: sv.NLO, N1HI: sv.N1HI,
		Reason: sv.Reason,
	}
	if sv.Reason != FailNone {
		return res, nil
	}
	cfg := opt.Safety
	hi := s.ByClass(criticality.HI)
	nHI, nLO, n1 := sv.NHI, sv.NLO, sv.N1HI

	// Line 8: maximal schedulable adaptation profile over [1, n_HI],
	// bisected with delta-patched conversions in the scratch arena when
	// one is supplied.
	n2, err := MaxSchedProfile(s, opt.Scratch, test, Profiles{NHI: nHI, NLO: nLO, NPrime: nHI})
	if err != nil {
		return Result{}, err
	}
	res.N2HI = n2

	// Lines 9–15.
	if n2 == 0 || n1 > n2 {
		res.Reason = FailUnschedulable
		return res, nil
	}
	res.OK = true
	m.ftsSuccess.Inc()
	res.Profiles = Profiles{NHI: nHI, NLO: nLO, NPrime: n2}
	if opt.Scratch == nil {
		res.Converted, err = Convert(s, res.Profiles)
		if err != nil {
			return Result{}, err
		}
	}
	// The achieved bounds. Line 4's kill probes are settled by the
	// certified interval and memoize no value, so in Kill mode this read
	// is usually the analysis's one exact eq. (5) sweep; in Degrade mode
	// eq. (7) is evaluated from the cache's eq. (3) model of n²_HI.
	res.PFHHI = cfg.PlainPFHUniform(hi, nHI)
	res.PFHLO, err = cache.PFHLOUniform(opt.Mode, nLO, n2, opt.DF)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// MaxSchedProfile computes line 8 of Algorithm 1, n²_HI =
// sup{n ∈ [1, p.NHI] : Γ(p.NHI, p.NLO, n) schedulable by test} (0 when
// empty; p.NPrime is not read), with supSchedulable. It is exported for
// engines that orchestrate the surrounding lines themselves (the Fig. 3
// campaign). Its first probe (at n_HI) builds the conversion in full;
// with a Scratch every later probe rewrites only the HI tasks' C(LO)
// fields via patchNPrime instead of re-converting the set, and a nil scr
// selects the allocating conversion path. The linear reference is
// maxSchedProfileLinear, pinned to this search by
// TestFTSBisectionDifferential.
func MaxSchedProfile(s *task.Set, scr *Scratch, test mcsched.Test, p Profiles) (int, error) {
	m := coreView.Get()
	return supSchedulable(p.NHI, func(n int) (bool, error) {
		var conv *mcsched.MCSet
		if n < p.NHI && scr != nil {
			conv = scr.patchNPrime(s, p.NHI, n)
			m.deltaPatches.Inc()
		} else {
			var err error
			conv, err = scr.convert(s, Profiles{NHI: p.NHI, NLO: p.NLO, NPrime: n})
			if err != nil {
				return false, err
			}
			m.fullConverts.Inc()
		}
		m.line8Probes.Inc()
		return test.Schedulable(conv), nil
	})
}

// supSchedulable is the line-8 search of both FT-S front ends: the sup of
// {n ∈ [1, nMax] : sched(n)} (0 when empty). Schedulability is
// downward-closed in n′ — a larger adaptation profile only inflates the
// HI tasks' C(LO) (pinned by TestSchedulabilityDownwardClosedInNPrime) —
// so it probes nMax first, which settles the common case in one probe,
// and otherwise bisects [1, nMax−1]. A probe error stops the search and
// is returned.
func supSchedulable(nMax int, sched func(n int) (bool, error)) (int, error) {
	ok, err := sched(nMax)
	if err != nil {
		return 0, err
	}
	if ok {
		return nMax, nil
	}
	// Bisect (lo, hi): schedulable at lo (or lo = 0, the empty-sup
	// sentinel), not schedulable at hi.
	lo, hi := 0, nMax
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := sched(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
