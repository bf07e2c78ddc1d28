package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/task"
)

// TriageSchema versions the on-disk repro record format.
const TriageSchema = "ftmc/soak-triage/v1"

// DefaultShrinkBudget caps the shrinker's re-executions per failure.
// Each candidate mutation costs one full Execute (four analyses + two
// simulations), so the budget bounds triage latency, not soak latency —
// it is only spent on failing runs.
const DefaultShrinkBudget = 300

// TriageRecord is one minimized, replayable failure: everything needed
// to reproduce the violation deterministically in a fresh process. The
// task set is pinned into both specs, so a record replays even if the
// workload generator's draw sequence ever changes.
type TriageRecord struct {
	// Schema is TriageSchema.
	Schema string `json:"schema"`
	// Invariant is the primary violated invariant the shrinker
	// preserved; Detail is its message on the original failure.
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	// Seed and Key locate the failure in the sweep's coordinate grid.
	Seed int64             `json:"seed"`
	Key  gen.SimulationKey `json:"key"`
	// Spec is the minimized spec (tasks pinned); Original is the
	// failing spec as drawn (tasks pinned for draw-independence).
	Spec     RunSpec `json:"spec"`
	Original RunSpec `json:"original"`
	// ShrinkSteps counts accepted mutations; 0 means the original was
	// already minimal (or the budget was exhausted immediately).
	ShrinkSteps int `json:"shrink_steps"`
	// Violations are the minimized spec's violations on the final
	// verification run.
	Violations []Violation `json:"violations"`
}

// Triage pins, shrinks and packages one failing run. violations must be
// the non-empty violation list Execute produced for spec; the first
// entry's invariant is the property the shrinker preserves, within
// DefaultShrinkBudget re-executions. Returns nil if the spec cannot be
// pinned or no longer fails (a flaky failure — by construction
// impossible for deterministic checks, and exactly what the record
// should not fabricate a repro for).
func Triage(spec RunSpec, violations []Violation, env *RunEnv) *TriageRecord {
	if len(violations) == 0 {
		return nil
	}
	primary := violations[0].Invariant

	// Pin the drawn task set so every subsequent mutation — and every
	// future replay — operates on an explicit workload.
	if spec.Tasks == nil {
		set, err := spec.Materialize()
		if err != nil {
			// Materialization itself was the failure; the spec is
			// already fully explicit.
			if primary != "materialize" {
				return nil
			}
		} else {
			spec.Tasks = set
		}
	}
	original := spec

	sh := &shrinker{env: env, primary: primary, budget: DefaultShrinkBudget}
	if !sh.fails(spec) {
		return nil
	}
	minimized, steps := sh.shrink(spec)
	final := Execute(minimized, env)
	return &TriageRecord{
		Schema:      TriageSchema,
		Invariant:   primary,
		Detail:      violations[0].Detail,
		Seed:        spec.Seed,
		Key:         spec.Key(),
		Spec:        minimized,
		Original:    original,
		ShrinkSteps: steps,
		Violations:  final.Violations,
	}
}

// Replay re-executes a record's minimized spec in env and returns its
// violations — non-empty iff the record still reproduces.
func Replay(rec *TriageRecord, env *RunEnv) []Violation {
	return Execute(rec.Spec, env).Violations
}

// WriteRecord writes the record into dir (created if needed) under a
// content-addressed name and returns the path.
func WriteRecord(dir string, rec *TriageRecord) (string, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	var h uint64
	for _, b := range data {
		h = gen.Mix64(h ^ uint64(b))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("triage-%s-%016x.json", rec.Invariant, h))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadRecord loads a written record.
func ReadRecord(path string) (*TriageRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec TriageRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("harness: decoding %s: %w", path, err)
	}
	if rec.Schema != TriageSchema {
		return nil, fmt.Errorf("harness: %s has schema %q, want %q", path, rec.Schema, TriageSchema)
	}
	return &rec, nil
}

// shrinker minimizes a failing spec under a re-execution budget: a
// mutation is kept iff the mutated spec still violates the primary
// invariant. All passes are deterministic and applied in a fixed order
// to a fixed point, so shrinking the same failure twice yields the same
// minimized spec — the stability property the triage tests pin.
type shrinker struct {
	env     *RunEnv
	primary string
	budget  int
}

// fails re-executes sp and reports whether the primary invariant is
// still violated, spending one unit of budget.
func (sh *shrinker) fails(sp RunSpec) bool {
	if sh.budget <= 0 {
		return false
	}
	sh.budget--
	for _, v := range Execute(sp, sh.env).Violations {
		if v.Invariant == sh.primary {
			return true
		}
	}
	return false
}

// try keeps the candidate iff it still fails.
func (sh *shrinker) try(current *RunSpec, candidate RunSpec, steps *int) bool {
	if sh.budget <= 0 {
		return false
	}
	if sh.fails(candidate) {
		*current = candidate
		*steps++
		return true
	}
	return false
}

// shrink runs all passes to a fixed point (or budget exhaustion).
func (sh *shrinker) shrink(sp RunSpec) (RunSpec, int) {
	steps := 0
	for changed := true; changed && sh.budget > 0; {
		changed = false
		changed = sh.dropTasks(&sp, &steps) || changed
		changed = sh.simplifyScalars(&sp, &steps) || changed
		changed = sh.halveHorizon(&sp, &steps) || changed
	}
	return sp, steps
}

// dropTasks removes tasks one at a time while the failure persists.
// task.NewSet enforces the dual-criticality floor (at least one task of
// each class), so candidates that would collapse a class are skipped
// naturally via the constructor error.
func (sh *shrinker) dropTasks(sp *RunSpec, steps *int) bool {
	if sp.Tasks == nil {
		return false
	}
	any := false
	for i := 0; i < sp.Tasks.Len() && sh.budget > 0; {
		tasks := sp.Tasks.Tasks()
		cand := make([]task.Task, 0, len(tasks)-1)
		cand = append(cand, tasks[:i]...)
		cand = append(cand, tasks[i+1:]...)
		smaller, err := task.NewSet(cand)
		if err != nil {
			i++
			continue
		}
		candidate := *sp
		candidate.Tasks = smaller
		if sh.try(sp, candidate, steps) {
			any = true // same index now names the next task
		} else {
			i++
		}
	}
	return any
}

// simplifyScalars tries the discrete simplifications, each once per
// fixed-point round: simpler fault regime, default backend, unit
// operation period, plain WCET accounting, no sporadic jitter, no
// preemption overhead, canonical df.
func (sh *shrinker) simplifyScalars(sp *RunSpec, steps *int) bool {
	any := false
	mutate := func(f func(*RunSpec)) {
		candidate := *sp
		f(&candidate)
		if candidate != *sp && sh.try(sp, candidate, steps) {
			any = true
		}
	}
	switch sp.Fault {
	case FaultCkpt, FaultBurst:
		mutate(func(c *RunSpec) {
			c.Fault = FaultIID
			if c.FailProb == 0 {
				c.FailProb = 1e-3
			}
			c.BurstGapUs, c.BurstLenUs = 0, 0
			c.CkptSegments, c.CkptRetries, c.CkptOverheadUs = 0, 0, 0
			c.RatePerHour = 0
		})
	}
	if sp.Fault == FaultIID {
		mutate(func(c *RunSpec) { c.Fault = FaultNone })
	}
	if sp.Backend != BackendDefault {
		mutate(func(c *RunSpec) { c.Backend = BackendDefault })
	}
	if sp.Mode == ModeDegrade && sp.DF != 2 {
		mutate(func(c *RunSpec) { c.DF = 2 })
	}
	if sp.OperationHours != 1 {
		mutate(func(c *RunSpec) { c.OperationHours = 1 })
	}
	if sp.FullWCET {
		mutate(func(c *RunSpec) { c.FullWCET = false })
	}
	if sp.SporadicMaxDelayUs != 0 {
		mutate(func(c *RunSpec) { c.SporadicMaxDelayUs = 0 })
	}
	if sp.PreemptOverheadUs != 0 {
		mutate(func(c *RunSpec) { c.PreemptOverheadUs = 0 })
	}
	return any
}

// halveHorizon bisects the horizon down while the failure persists,
// stopping at 1 ms (below which most sets release no jobs at all).
func (sh *shrinker) halveHorizon(sp *RunSpec, steps *int) bool {
	any := false
	for sp.HorizonUs > 1000 && sh.budget > 0 {
		candidate := *sp
		candidate.HorizonUs /= 2
		if candidate.HorizonUs < 1000 {
			candidate.HorizonUs = 1000
		}
		if !sh.try(sp, candidate, steps) {
			break
		}
		any = true
	}
	return any
}
