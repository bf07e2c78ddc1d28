// Package harness is the full-stack invariant soak engine: a
// property-based sweep over the cross-product of scheduler backends,
// adaptation modes, fault models and hostile workloads that asserts, on
// every run, the system's conservation laws and cross-path agreement
// obligations — the rely/guarantee shape of the paper's FT-S argument.
//
// One run is described by a RunSpec: deterministic coordinates
// (seed + run index, addressed exactly like a campaign draw via
// gen.SimulationKey) plus the configuration cell of the cross-product.
// Executing a run materializes the workload, analyzes it through every
// verdict path the repository has — scalar core.FTS, the
// safety.CacheShards-shared path and the serve pipeline (the same
// request twice at once, so identical misses meet in flight) —
// simulates it twice under the spec's fault regime, and checks:
//
//   - conservation: released = completed + late + round-failed +
//     killed + pending, per task, plus the busy-time / attempt-count /
//     suppression side conditions (sim);
//   - verdict agreement: all analysis paths produce bit-identical
//     results (the shared path on the drawn task order, both serve
//     answers against a direct analysis of the canonical order), and
//     on a successful kill verdict the cached and uncached eq. (5)
//     bounds at the chosen (n²_HI, n_LO) equal the verdict's pfh(LO);
//   - determinism: re-running the identical spec reproduces the
//     simulation statistics exactly, and the whole sweep digest is
//     invariant under worker count and lease (chunk) shape;
//   - no panics: a panic anywhere in a run is recovered into a failure
//     record instead of killing the soak.
//
// Failures are triaged: the failing spec is pinned (the drawn task set
// is embedded), shrunk to a minimized reproduction (fewer tasks,
// shorter horizon, simpler fault regime) and emitted as a replayable
// JSON TriageRecord — see triage.go.
//
// The engine ships in two budgeted tiers: the seconds-scale PR tier
// runs as an ordinary test (TestSoakSmoke, `make soak`), the deep tier
// runs ≥ 10^5 runs via `ftmc-bench -soak` (`make soak-deep`). Both
// share one serve.Pipeline and one deliberately tiny safety.CacheShards
// pool across all concurrent runs, so the sweep churns multi-context
// cache eviction and worker-pool skew — exactly the concurrent paths
// a single benchmark box cannot stress.
package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Workload kinds: the hostile-workload axis of the cross-product.
const (
	// WorkloadPaper draws Appendix C sets at moderate utilization — the
	// baseline the other kinds are hostile variants of.
	WorkloadPaper = "paper"
	// WorkloadNearOverload draws Appendix C sets at U ∈ [0.95, 1.08]:
	// around and past the schedulability cliff, where analyses mostly
	// reject and the simulator runs saturated.
	WorkloadNearOverload = "near-overload"
	// WorkloadDegeneratePeriods builds sets whose tasks all share one
	// period: every release and deadline coincides, the adversarial
	// tie-breaking case for the ready-queue ordering.
	WorkloadDegeneratePeriods = "degenerate-periods"
	// WorkloadSingleTask builds the minimum legal dual-criticality set —
	// one HI task and one LO task — where class-partition edge cases
	// (empty remainder after a kill, single-element searches) live.
	WorkloadSingleTask = "single-task"
)

// Fault kinds: the fault-regime axis.
const (
	// FaultNone injects no faults (sim.NoFaults).
	FaultNone = "none"
	// FaultIID fails attempts independently with the spec's per-attempt
	// probability — the paper's model.
	FaultIID = "iid"
	// FaultBurst drives sim.BurstFaults: exponential gaps, fixed-length
	// bursts, maximally correlated hits.
	FaultBurst = "burst"
	// FaultCkpt derives per-task attempt-failure probabilities from the
	// checkpoint-round model (ckpt.Params.RoundFailProb at the spec's
	// fault rate): an attempt fails iff its checkpoint round fails.
	FaultCkpt = "ckpt"
)

// Adaptation modes, as spec strings.
const (
	ModeKill    = "kill"
	ModeDegrade = "degrade"
)

// Backend names, matching the serve wire names ("" is Algorithm 1's
// per-mode default: EDF-VD in Kill mode, EDF-VD-degrade in Degrade).
const (
	BackendDefault = ""
	BackendSMC     = "smc"
	BackendAMCrtb  = "amc-rtb"
	BackendDBFTune = "dbf-tune"
)

// RunSpec addresses one soak run. It is the unit of reproduction: the
// JSON encoding of a RunSpec is the "config JSON" of a triage record,
// and executing two equal specs yields identical outcomes. Tasks is nil
// for sweep runs (the workload is drawn deterministically from the
// coordinates); the shrinker pins it so mutations operate on an
// explicit set.
type RunSpec struct {
	// Seed and Index are the sweep coordinates; Key() derives the
	// gen.SimulationKey every random stream of the run hangs off.
	Seed  int64 `json:"seed"`
	Index int   `json:"index"`

	// Workload, Backend, Mode, Fault select the cross-product cell.
	Workload string `json:"workload"`
	Backend  string `json:"backend,omitempty"`
	Mode     string `json:"mode"`
	Fault    string `json:"fault"`

	// DF is the degradation factor (> 1), read in Degrade mode.
	DF float64 `json:"df,omitempty"`
	// FailProb is the per-attempt failure probability stamped on the
	// drawn tasks (analysis f) and driving the iid fault regime.
	FailProb float64 `json:"fail_prob"`
	// RatePerHour is the raw transient-fault rate λ of the checkpoint
	// regime (faults/h of exposed execution).
	RatePerHour float64 `json:"rate_per_hour,omitempty"`
	// BurstGapUs / BurstLenUs parameterize the burst regime (µs).
	BurstGapUs int64 `json:"burst_gap_us,omitempty"`
	BurstLenUs int64 `json:"burst_len_us,omitempty"`
	// CkptSegments / CkptRetries / CkptOverheadUs parameterize the
	// checkpoint regime.
	CkptSegments   int   `json:"ckpt_segments,omitempty"`
	CkptRetries    int   `json:"ckpt_retries,omitempty"`
	CkptOverheadUs int64 `json:"ckpt_overhead_us,omitempty"`

	// HorizonUs is the simulated duration (µs).
	HorizonUs int64 `json:"horizon_us"`
	// OperationHours is the safety config's OS.
	OperationHours int `json:"operation_hours"`
	// FullWCET selects the paper's footnote-1 assumption.
	FullWCET bool `json:"full_wcet"`
	// SporadicMaxDelayUs, when positive, randomizes releases with up to
	// this much extra inter-arrival delay (µs).
	SporadicMaxDelayUs int64 `json:"sporadic_max_delay_us,omitempty"`
	// PreemptOverheadUs charges the simulator per preemption (µs).
	PreemptOverheadUs int64 `json:"preempt_overhead_us,omitempty"`

	// Tasks pins the workload to an explicit set (shrunk repros); nil
	// draws from the coordinates.
	Tasks *task.Set `json:"tasks,omitempty"`
}

// Key returns the run's campaign-grid coordinates. Soak runs live on
// the set axis of panel 0, point 0 — the same addressing the campaign
// engines use, so a repro seed can be cross-referenced against any
// other experiment drawing from the same stream.
func (s RunSpec) Key() gen.SimulationKey {
	return gen.SimulationKey{Seed: s.Seed, Panel: 0, Point: 0, Set: s.Index}
}

// Horizon returns the simulated duration as a time value.
func (s RunSpec) Horizon() timeunit.Time { return timeunit.Time(s.HorizonUs) }

// AdaptMode maps the spec's mode string onto safety.AdaptMode.
func (s RunSpec) AdaptMode() (safety.AdaptMode, error) {
	switch s.Mode {
	case ModeKill:
		return safety.Kill, nil
	case ModeDegrade:
		return safety.Degrade, nil
	}
	return 0, fmt.Errorf("harness: unknown adaptation mode %q", s.Mode)
}

// Materialize resolves the spec's task set: the pinned set when present
// (shrunk repros), else a deterministic draw from the spec's workload
// kind at the spec's workload stream. The returned set is freshly
// allocated — callers may canonicalize or restamp it freely.
func (s RunSpec) Materialize() (*task.Set, error) {
	if s.Tasks != nil {
		// Clone: Execute canonicalizes a copy, and the shrinker mutates
		// task lists; the pinned set must stay pristine.
		return task.NewSet(append([]task.Task(nil), s.Tasks.Tasks()...))
	}
	rng := rand.New(rand.NewSource(s.Key().Stream(gen.SubsystemWorkload)))
	switch s.Workload {
	case WorkloadPaper:
		u := 0.30 + 0.60*rng.Float64()
		return gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelD, u, s.FailProb))
	case WorkloadNearOverload:
		u := 0.95 + 0.13*rng.Float64() // spans the U = 1 cliff
		return gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelD, u, s.FailProb))
	case WorkloadDegeneratePeriods:
		return degeneratePeriodSet(rng, s.FailProb)
	case WorkloadSingleTask:
		return singleTaskSet(rng, s.FailProb)
	}
	return nil, fmt.Errorf("harness: unknown workload %q", s.Workload)
}

// degeneratePeriodSet builds a set whose tasks all share one period (and
// implicit deadline): every release instant and every deadline
// coincides, so scheduling order rests entirely on the tie-breaking
// rules.
func degeneratePeriodSet(rng *rand.Rand, failProb float64) (*task.Set, error) {
	period := timeunit.Milliseconds(int64(1 + rng.Intn(100)))
	n := 2 + rng.Intn(6)
	tasks := make([]task.Task, 0, n)
	for i := 0; i < n; i++ {
		// u ∈ [0.01, 0.2] per task, like Appendix C, but on one period.
		u := 0.01 + 0.19*rng.Float64()
		wcet := timeunit.Time(u * period.Float())
		if wcet < 1 {
			wcet = 1
		}
		level := criticality.LevelD
		// The first two tasks pin one of each class so the set is always
		// a legal dual-criticality system.
		if i == 0 || (i > 1 && rng.Float64() < 0.3) {
			level = criticality.LevelB
		}
		tasks = append(tasks, task.Task{
			Name:     fmt.Sprintf("τ%d", i+1),
			Period:   period,
			Deadline: period,
			WCET:     wcet,
			Level:    level,
			FailProb: failProb,
		})
	}
	return task.NewSet(tasks)
}

// singleTaskSet builds the minimum legal dual-criticality set: one HI
// and one LO task.
func singleTaskSet(rng *rand.Rand, failProb float64) (*task.Set, error) {
	mk := func(name string, level criticality.Level) task.Task {
		period := timeunit.Milliseconds(int64(10 + rng.Intn(1990)))
		u := 0.05 + 0.4*rng.Float64()
		wcet := timeunit.Time(u * period.Float())
		if wcet < 1 {
			wcet = 1
		}
		return task.Task{Name: name, Period: period, Deadline: period, WCET: wcet,
			Level: level, FailProb: failProb}
	}
	return task.NewSet([]task.Task{mk("hi", criticality.LevelB), mk("lo", criticality.LevelD)})
}

// Violation is one failed invariant in one run.
type Violation struct {
	// Invariant names the violated property (e.g. "sim-conservation",
	// "kill-bound-agreement", "panic").
	Invariant string `json:"invariant"`
	// Detail describes the concrete divergence.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violationf appends a formatted violation.
func violationf(vs []Violation, invariant, format string, args ...any) []Violation {
	return append(vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Check is an extra invariant evaluated after the built-in ones on
// every run — the hook the triage tests use to inject a known-bad
// invariant, and an extension point for experiment-specific properties.
// A nil return means the check passed. Checks must be deterministic
// functions of the spec and environment and safe for concurrent calls.
type Check func(spec RunSpec, env *RunEnv) *Violation
