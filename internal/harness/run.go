package harness

import (
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// RunEnv is the shared environment one soak sweep executes in: a single
// serve pipeline and a single adaptation-shard pool deliberately shared
// (and deliberately small, see NewRunEnv) across all concurrent runs,
// so every run contends on eviction and shard locking — plus the extra
// checks evaluated on each run. One RunEnv serves many concurrent
// Execute calls.
type RunEnv struct {
	// Pipeline is the serve-path analysis route.
	Pipeline *serve.Pipeline
	// Shards is the shared-cache analysis route (core.Options.Shared).
	Shards *safety.CacheShards
	// Checks are extra invariants evaluated after the built-in ones.
	Checks []Check
}

// NewRunEnv builds a sweep environment. shardContexts caps the per-shard
// context count of the adaptation-shard pool; values ≤ 0 select 2 —
// small enough that the sweep's workload diversity (hundreds of
// distinct sets in flight) forces continuous multi-context eviction,
// the concurrency regime the single-threaded benchmarks never reach.
// The serve pipeline is likewise configured tiny (256 verdict entries)
// so its cache churns instead of saturating.
func NewRunEnv(shardContexts int, checks ...Check) *RunEnv {
	if shardContexts <= 0 {
		shardContexts = 2
	}
	return &RunEnv{
		Pipeline: serve.NewPipeline(serve.Options{CacheEntries: 256}),
		Shards:   safety.NewCacheShardsCap(shardContexts),
		Checks:   checks,
	}
}

// Close releases the environment (waits for the pipeline's admitted
// analyses).
func (e *RunEnv) Close() {
	if e.Pipeline != nil {
		e.Pipeline.Close()
	}
}

// RunOutcome is the complete observable result of one run: what the
// digest folds and what triage reports.
type RunOutcome struct {
	Spec RunSpec
	// Scalar is the reference core.FTS result on the drawn task order.
	Scalar core.Result
	// Serve is the pipeline's verdict on the same tasks.
	Serve serve.Verdict
	// Stats is the simulation statistics (first of the two runs).
	Stats sim.Stats
	// Violations lists every invariant that failed; empty means the run
	// upheld all of them.
	Violations []Violation
}

// backendTest resolves the spec's backend name to the schedulability
// test core.Options carries; nil is Algorithm 1's per-mode default.
func backendTest(name string) (mcsched.Test, bool) {
	switch name {
	case BackendDefault:
		return nil, true
	case BackendSMC:
		return mcsched.SMC{}, true
	case BackendAMCrtb:
		return mcsched.AMCrtb{}, true
	case BackendDBFTune:
		return mcsched.DBFTune{}, true
	}
	return nil, false
}

// options assembles the core analysis options of the spec.
func (s RunSpec) options() (core.Options, error) {
	mode, err := s.AdaptMode()
	if err != nil {
		return core.Options{}, err
	}
	test, ok := backendTest(s.Backend)
	if !ok {
		return core.Options{}, errUnknownBackend(s.Backend)
	}
	return core.Options{
		Safety: safety.Config{OperationHours: s.OperationHours, AssumeFullWCET: s.FullWCET},
		Mode:   mode,
		DF:     s.DF,
		Test:   test,
	}, nil
}

type errUnknownBackend string

func (e errUnknownBackend) Error() string { return "harness: unknown backend " + string(e) }

// faultModel builds a fresh fault model from the spec's fault stream.
// Each simulation run gets its own instance (the determinism check runs
// the sim twice and must re-create identical stochastic state).
func (s RunSpec) faultModel(set *task.Set) (sim.FaultModel, error) {
	rng := rand.New(rand.NewSource(s.Key().Stream(gen.SubsystemFaults)))
	switch s.Fault {
	case FaultNone:
		return sim.NoFaults{}, nil
	case FaultIID:
		probs := make([]float64, set.Len())
		for i := range probs {
			probs[i] = s.FailProb
		}
		return sim.NewRandomFaults(rng, probs), nil
	case FaultBurst:
		return sim.NewBurstFaults(rng, timeunit.Time(s.BurstGapUs), timeunit.Time(s.BurstLenUs))
	case FaultCkpt:
		p := ckpt.Params{Segments: s.CkptSegments, Retries: s.CkptRetries,
			Overhead: timeunit.Time(s.CkptOverheadUs)}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		rate := safety.FaultRate{PerHour: s.RatePerHour}
		probs := make([]float64, set.Len())
		for i, t := range set.Tasks() {
			probs[i] = float64(p.RoundFailProb(t.WCET, rate))
		}
		return sim.NewRandomFaults(rng, probs), nil
	}
	return nil, errUnknownFault(s.Fault)
}

type errUnknownFault string

func (e errUnknownFault) Error() string { return "harness: unknown fault model " + string(e) }

// simConfig assembles the simulation of the spec: the analyzed profiles
// when the verdict was SUCCESS, else a fixed modest profile (the sim's
// conservation laws must hold for unschedulable systems too — that is
// where the hostile workloads live).
func (s RunSpec) simConfig(set *task.Set, scalar core.Result) (sim.Config, error) {
	mode, err := s.AdaptMode()
	if err != nil {
		return sim.Config{}, err
	}
	profiles := core.Profiles{NHI: 2, NLO: 1, NPrime: 1}
	if scalar.OK {
		profiles = scalar.Profiles
	}
	cfg := sim.Config{
		Set:     set,
		NHI:     profiles.NHI,
		NLO:     profiles.NLO,
		NPrime:  profiles.NPrime,
		Mode:    mode,
		Horizon: s.Horizon(),
		// VDFactor 1 (plain EDF keys) is legal at every utilization;
		// the analytical factor derivation can fail on hostile sets.
		VDFactor:           1,
		PreemptionOverhead: timeunit.Time(s.PreemptOverheadUs),
	}
	if mode == safety.Degrade {
		cfg.DF = s.DF
	}
	switch s.Backend {
	case BackendDefault:
		cfg.Policy = sim.PolicyEDFVD
	case BackendSMC, BackendAMCrtb:
		cfg.Policy = sim.PolicyDM
	case BackendDBFTune:
		cfg.Policy = sim.PolicyEDF
	default:
		return sim.Config{}, errUnknownBackend(s.Backend)
	}
	if s.SporadicMaxDelayUs > 0 {
		// Seeded off the fault stream with a fixed offset so sporadic
		// delays are independent of the fault draws yet reproduce
		// exactly on the determinism re-run.
		cfg.Sporadic = &sim.Sporadic{
			MaxDelay: timeunit.Time(s.SporadicMaxDelayUs),
			Rng:      rand.New(rand.NewSource(s.Key().Stream(gen.SubsystemFaults) ^ 0x5deece66d)),
		}
	}
	fm, err := s.faultModel(set)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Faults = fm
	return cfg, nil
}

// resultsEqual compares two core results field by field, excluding
// Converted (a pointer left nil by scratch-path runs; its content is a
// pure function of Profiles, which are compared). Floats compare by
// bits: the agreement contract between the analysis tiers is
// bit-identity, not tolerance.
func resultsEqual(a, b core.Result) bool {
	return a.OK == b.OK && a.Reason == b.Reason &&
		a.NHI == b.NHI && a.NLO == b.NLO && a.N1HI == b.N1HI && a.N2HI == b.N2HI &&
		a.Profiles == b.Profiles &&
		math.Float64bits(a.PFHHI) == math.Float64bits(b.PFHHI) &&
		math.Float64bits(a.PFHLO) == math.Float64bits(b.PFHLO) &&
		a.TestName == b.TestName
}

// verdictMatches compares a serve verdict against the reference scalar
// result it must be bit-identical to (core.FTS on the canonicalized
// set). Cache provenance (Cached, Hash) is excluded: whether the answer
// came from the verdict cache depends on sweep interleaving.
func verdictMatches(v serve.Verdict, ref core.Result) bool {
	return v.OK == ref.OK && v.Reason == string(ref.Reason) &&
		v.NHI == ref.NHI && v.NLO == ref.NLO && v.N1HI == ref.N1HI && v.N2HI == ref.N2HI &&
		v.Profiles == (serve.ProfilesJSON{NHI: ref.Profiles.NHI, NLO: ref.Profiles.NLO, NPrime: ref.Profiles.NPrime}) &&
		math.Float64bits(v.PFHHI) == math.Float64bits(ref.PFHHI) &&
		math.Float64bits(v.PFHLO) == math.Float64bits(ref.PFHLO) &&
		v.Test == ref.TestName
}

// Execute runs one spec through every analysis path and the simulator,
// evaluating all built-in invariants plus env.Checks. It never panics:
// a panic in any layer is recovered into a "panic" violation carrying
// the stack.
func Execute(spec RunSpec, env *RunEnv) (out RunOutcome) {
	out.Spec = spec
	defer func() {
		if r := recover(); r != nil {
			out.Violations = violationf(out.Violations, "panic", "%v\n%s", r, debug.Stack())
		}
	}()

	set, err := spec.Materialize()
	if err != nil {
		out.Violations = violationf(out.Violations, "materialize", "%v", err)
		return out
	}
	opt, err := spec.options()
	if err != nil {
		out.Violations = violationf(out.Violations, "spec", "%v", err)
		return out
	}

	// Reference analysis: scalar FTS on the drawn task order.
	out.Scalar, err = core.FTS(set, opt)
	if err != nil {
		out.Violations = violationf(out.Violations, "analysis", "scalar FTS rejected a valid spec: %v", err)
		return out
	}

	// Eq. (5) at the run's (n²_HI, n_LO): on a successful kill verdict
	// the cached and uncached evaluations of the bound must reproduce
	// the verdict's pfh(LO) bit for bit, inside the certified interval.
	if out.Scalar.OK && opt.Mode == safety.Kill {
		out.Violations = checkKillBound(out.Violations, set, opt.Safety, out.Scalar)
	}

	// Shared-cache route (safety.CacheShards): same contract, plus this
	// is the call that churns multi-context eviction under concurrency.
	sharedOpt := opt
	sharedOpt.Shared = env.Shards
	if shared, serr := core.FTS(set, sharedOpt); serr != nil {
		out.Violations = violationf(out.Violations, "verdict-shared-agreement", "shared FTS error: %v", serr)
	} else if !resultsEqual(shared, out.Scalar) {
		out.Violations = violationf(out.Violations, "verdict-shared-agreement",
			"shared %v != scalar %v", shared, out.Scalar)
	}

	// Serve path: the pipeline canonicalizes, so its reference is a
	// direct scalar run on the canonically-sorted set (bit-identical per
	// the pipeline's contract; the drawn order may differ in float
	// accumulation order and is compared above instead).
	canon := append([]task.Task(nil), set.Tasks()...)
	task.SortCanonical(canon)
	canonSet, err := task.NewSet(canon)
	if err != nil {
		out.Violations = violationf(out.Violations, "canonicalize", "%v", err)
		return out
	}
	canonRef, err := core.FTS(canonSet, opt)
	if err != nil {
		out.Violations = violationf(out.Violations, "analysis", "canonical FTS error: %v", err)
		return out
	}
	// The set goes in twice at once, so identical misses meet in
	// flight and the pipeline's single-flight path runs under the
	// sweep's concurrency; both answers must match.
	req := serve.Request{
		Tasks:  set.Tasks(),
		Safety: opt.Safety,
		Mode:   opt.Mode,
		DF:     spec.DF,
		Test:   spec.Backend,
	}
	var twin serve.Verdict
	var twinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		twin, twinErr = env.Pipeline.Verdict(req)
	}()
	v, verr := env.Pipeline.Verdict(req)
	wg.Wait()
	for _, r := range []struct {
		v   serve.Verdict
		err error
	}{{v, verr}, {twin, twinErr}} {
		if r.err != nil {
			out.Violations = violationf(out.Violations, "verdict-serve-agreement", "pipeline error: %v", r.err)
		} else if !verdictMatches(r.v, canonRef) {
			out.Violations = violationf(out.Violations, "verdict-serve-agreement",
				"serve %+v != canonical scalar %v", r.v, canonRef)
		}
	}
	if verr == nil {
		out.Serve = v
	}

	// Checkpoint-model bounds ride along on ckpt runs: q(k, m) is a
	// probability, more retries never hurt, and the certifiable budget
	// dominates the plain WCET.
	if spec.Fault == FaultCkpt {
		out.Violations = spec.checkCkptBounds(out.Violations, set)
	}

	// Simulation: run twice from identical stochastic state; the first
	// run feeds the conservation laws, the pair feeds determinism.
	cfg, err := spec.simConfig(set, out.Scalar)
	if err != nil {
		out.Violations = violationf(out.Violations, "sim-config", "%v", err)
		return out
	}
	sm, err := sim.New(cfg)
	if err != nil {
		out.Violations = violationf(out.Violations, "sim-config", "sim.New rejected a valid spec: %v", err)
		return out
	}
	out.Stats = sm.Run()
	out.Violations = spec.checkConservation(out.Violations, cfg, out.Stats)

	cfg2, err := spec.simConfig(set, out.Scalar)
	if err == nil {
		if sm2, err2 := sim.New(cfg2); err2 == nil {
			if again := sm2.Run(); !reflect.DeepEqual(out.Stats, again) {
				out.Violations = violationf(out.Violations, "sim-determinism",
					"re-run diverged: %v vs %v", out.Stats, again)
			}
		}
	}

	for _, check := range env.Checks {
		if v := check(spec, env); v != nil {
			out.Violations = append(out.Violations, *v)
		}
	}
	return out
}

// checkKillBound asserts that the cached eq. (5) bound
// (AdaptationCache.PFHLOUniform, which a MeetsLO probe falls back to),
// an uncached Config.KillingPFHLOUniform on a fresh adaptation model,
// and the verdict's own pfh(LO) agree bit for bit at the successful
// verdict's (n²_HI, n_LO), and that the certified interval MeetsLO
// settles probes with (Config.KillingIntervalUniform) contains that
// exact value.
func checkKillBound(vs []Violation, set *task.Set, cfg safety.Config, res core.Result) []Violation {
	hi, lo := set.ByClass(criticality.HI), set.ByClass(criticality.LO)
	n2, nLO := res.Profiles.NPrime, res.Profiles.NLO
	cached, err := safety.NewAdaptationCache(cfg, hi, lo).PFHLOUniform(safety.Kill, nLO, n2, 0)
	if err != nil {
		return violationf(vs, "kill-bound-agreement", "cached PFHLOUniform error: %v", err)
	}
	adapt, err := safety.NewUniformAdaptation(cfg, hi, n2)
	if err != nil {
		return violationf(vs, "kill-bound-agreement", "NewUniformAdaptation error: %v", err)
	}
	if l, h := cfg.KillingIntervalUniform(lo, nLO, adapt); !(l <= cached && cached <= h) {
		vs = violationf(vs, "kill-interval-containment", "exact pfh(LO) %v outside the interval [%v, %v]", cached, l, h)
	}
	if uncached := cfg.KillingPFHLOUniform(lo, nLO, adapt); math.Float64bits(uncached) != math.Float64bits(cached) {
		vs = violationf(vs, "kill-bound-agreement", "uncached KillingPFHLOUniform %v != cached PFHLOUniform %v", uncached, cached)
	}
	if math.Float64bits(cached) != math.Float64bits(res.PFHLO) {
		vs = violationf(vs, "kill-bound-agreement", "cached PFHLOUniform %v != FTS pfh(LO) %v", cached, res.PFHLO)
	}
	return vs
}

// checkConservation asserts the released-job accounting identities on
// one simulation run — the "released = completed + dropped + pending"
// law of ISSUE 9 plus its side conditions.
func (s RunSpec) checkConservation(vs []Violation, cfg sim.Config, st sim.Stats) []Violation {
	if st.Horizon != s.Horizon() {
		vs = violationf(vs, "sim-conservation", "stats horizon %v != spec horizon %v", st.Horizon, s.Horizon())
	}
	if st.BusyTime < 0 || st.BusyTime > st.Horizon {
		vs = violationf(vs, "sim-conservation", "busy time %v outside [0, %v]", st.BusyTime, st.Horizon)
	}
	if st.ModeSwitched && (st.ModeSwitchAt < 0 || st.ModeSwitchAt > st.Horizon) {
		vs = violationf(vs, "sim-conservation", "mode switch at %v outside the horizon %v", st.ModeSwitchAt, st.Horizon)
	}
	// The trigger fires when a HI job starts attempt NPrime+1; NPrime ≥
	// NHI caps attempts below the trigger, and with no faults no job
	// needs a second attempt.
	if st.ModeSwitched && (cfg.NPrime >= cfg.NHI || s.Fault == FaultNone) {
		vs = violationf(vs, "sim-conservation",
			"mode switch fired with n'=%d, n_HI=%d, faults=%q", cfg.NPrime, cfg.NHI, s.Fault)
	}
	for i, ts := range st.PerTask {
		if got := ts.Completed + ts.LateCompletions + ts.RoundFailures + ts.KilledJobs + ts.Pending; got != ts.Released {
			vs = violationf(vs, "sim-conservation",
				"task %s: released %d != completed %d + late %d + roundfail %d + killed %d + pending %d",
				ts.Name, ts.Released, ts.Completed, ts.LateCompletions, ts.RoundFailures, ts.KilledJobs, ts.Pending)
		}
		if ts.UnfinishedMisses > ts.Pending {
			vs = violationf(vs, "sim-conservation",
				"task %s: unfinished misses %d exceed pending %d", ts.Name, ts.UnfinishedMisses, ts.Pending)
		}
		if ts.FaultyAttempts > ts.Attempts {
			vs = violationf(vs, "sim-conservation",
				"task %s: faulty attempts %d exceed attempts %d", ts.Name, ts.FaultyAttempts, ts.Attempts)
		}
		if ts.Attempts < ts.Completed+ts.LateCompletions+ts.RoundFailures {
			vs = violationf(vs, "sim-conservation",
				"task %s: attempts %d below completions %d + late %d + round failures %d",
				ts.Name, ts.Attempts, ts.Completed, ts.LateCompletions, ts.RoundFailures)
		}
		if ts.Class == criticality.HI && (ts.KilledJobs != 0 || ts.SuppressedJobs != 0) {
			vs = violationf(vs, "sim-conservation",
				"HI task %s: killed %d / suppressed %d (adaptation must never touch HI)",
				ts.Name, ts.KilledJobs, ts.SuppressedJobs)
		}
		if !st.ModeSwitched && (ts.KilledJobs != 0 || ts.SuppressedJobs != 0) {
			vs = violationf(vs, "sim-conservation",
				"task %s: killed %d / suppressed %d without a mode switch",
				ts.Name, ts.KilledJobs, ts.SuppressedJobs)
		}
		if ts.SuppressedJobs != 0 && cfg.Mode != safety.Kill {
			vs = violationf(vs, "sim-conservation",
				"task %s: %d suppressed jobs outside Kill mode", ts.Name, ts.SuppressedJobs)
		}
		if cfg.Mode == safety.Kill && st.ModeSwitched && ts.Class == criticality.LO && ts.Pending != 0 {
			vs = violationf(vs, "sim-conservation",
				"LO task %s: %d jobs pending after a kill switch", ts.Name, ts.Pending)
		}
		_ = i
	}
	return vs
}

// checkCkptBounds asserts the checkpoint model's analytical sanity on
// every task of the set: round failure probabilities are probabilities,
// adding a retry never increases them, and the certifiable budget
// L(k, m) dominates both the plain WCET and any smaller retry count.
func (s RunSpec) checkCkptBounds(vs []Violation, set *task.Set) []Violation {
	p := ckpt.Params{Segments: s.CkptSegments, Retries: s.CkptRetries,
		Overhead: timeunit.Time(s.CkptOverheadUs)}
	if err := p.Validate(); err != nil {
		return violationf(vs, "ckpt-bounds", "invalid params drawn: %v", err)
	}
	more := p
	more.Retries++
	rate := safety.FaultRate{PerHour: s.RatePerHour}
	for _, t := range set.Tasks() {
		q := float64(p.RoundFailProb(t.WCET, rate))
		if math.IsNaN(q) || q < 0 || q > 1 {
			vs = violationf(vs, "ckpt-bounds", "task %s: q(k=%d,m=%d) = %g is not a probability",
				t.Name, p.Segments, p.Retries, q)
		}
		if qm := float64(more.RoundFailProb(t.WCET, rate)); qm > q*(1+1e-12)+1e-300 {
			vs = violationf(vs, "ckpt-bounds", "task %s: q increased with an extra retry: %g -> %g",
				t.Name, q, qm)
		}
		if l := p.RoundLength(t.WCET); l < t.WCET {
			vs = violationf(vs, "ckpt-bounds", "task %s: round budget %v below WCET %v", t.Name, l, t.WCET)
		} else if lm := more.RoundLength(t.WCET); lm < l {
			vs = violationf(vs, "ckpt-bounds", "task %s: budget shrank with an extra retry: %v -> %v",
				t.Name, l, lm)
		}
	}
	return vs
}

// Digest folds the run's complete observable outcome into one 64-bit
// value. The sweep engine folds these in index order into the sweep
// digest, whose invariance across worker counts and chunk shapes is the
// determinism proof. Cache provenance (serve.Verdict.Cached/Hash) is
// excluded — it legitimately depends on sweep interleaving; everything
// else must not.
func (o *RunOutcome) Digest() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) { h = gen.Mix64(h ^ v) }
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h = gen.Mix64(h ^ uint64(s[i]))
		}
		mix(uint64(len(s)))
	}

	mixBool(o.Scalar.OK)
	mixStr(string(o.Scalar.Reason))
	mix(uint64(o.Scalar.NHI))
	mix(uint64(o.Scalar.NLO))
	mix(uint64(o.Scalar.N1HI))
	mix(uint64(o.Scalar.N2HI))
	mix(uint64(o.Scalar.Profiles.NHI))
	mix(uint64(o.Scalar.Profiles.NLO))
	mix(uint64(o.Scalar.Profiles.NPrime))
	mix(math.Float64bits(o.Scalar.PFHHI))
	mix(math.Float64bits(o.Scalar.PFHLO))
	mixStr(o.Scalar.TestName)

	mixBool(o.Serve.OK)
	mixStr(o.Serve.Reason)
	mix(uint64(o.Serve.NHI))
	mix(uint64(o.Serve.NLO))
	mix(uint64(o.Serve.N1HI))
	mix(uint64(o.Serve.N2HI))
	mix(math.Float64bits(o.Serve.PFHHI))
	mix(math.Float64bits(o.Serve.PFHLO))
	mixStr(o.Serve.Test)

	mixBool(o.Stats.ModeSwitched)
	mix(uint64(o.Stats.ModeSwitchAt))
	mix(uint64(o.Stats.Preemptions))
	mix(uint64(o.Stats.BusyTime))
	mix(uint64(o.Stats.Horizon))
	mix(uint64(len(o.Stats.PerTask)))
	for _, ts := range o.Stats.PerTask {
		mixStr(ts.Name)
		mix(uint64(ts.Released))
		mix(uint64(ts.Completed))
		mix(uint64(ts.LateCompletions))
		mix(uint64(ts.RoundFailures))
		mix(uint64(ts.KilledJobs))
		mix(uint64(ts.SuppressedJobs))
		mix(uint64(ts.UnfinishedMisses))
		mix(uint64(ts.Pending))
		mix(uint64(ts.Attempts))
		mix(uint64(ts.FaultyAttempts))
		mix(uint64(ts.MaxResponse))
	}

	mix(uint64(len(o.Violations)))
	for _, v := range o.Violations {
		mixStr(v.Invariant)
	}
	return h
}
