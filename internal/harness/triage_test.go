package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/criticality"
)

// injectedLOPair is the known-bad invariant of the shrinker tests: it
// "fails" whenever the set has at least two LO tasks and the horizon is
// at least 2 ms. The minimal spec violating it is therefore exactly
// 1 HI + 2 LO tasks (task.NewSet refuses to drop the last HI) with a
// horizon in [2ms, 4ms) (one more halving would pass), the no-fault
// regime, the default backend and unit scalars — which the tests pin.
func injectedLOPair(spec RunSpec, _ *RunEnv) *Violation {
	set, err := spec.Materialize()
	if err != nil {
		return nil
	}
	if len(set.ByClass(criticality.LO)) >= 2 && spec.HorizonUs >= 2_000 {
		return &Violation{Invariant: "injected", Detail: "two LO tasks on a >=2ms horizon"}
	}
	return nil
}

// failingSpec finds a sweep spec that trips injectedLOPair.
func failingSpec(t *testing.T, env *RunEnv) RunSpec {
	t.Helper()
	space := DefaultSpace()
	for i := 0; i < 4*space.Cells(); i++ {
		spec := space.SpecAt(21, i)
		if v := injectedLOPair(spec, env); v != nil {
			return spec
		}
	}
	t.Fatal("no sweep spec trips the injected invariant")
	return RunSpec{}
}

// TestTriageShrinksToStableMinimum pins the shrinker's two contracted
// properties: the minimized repro is actually minimal for the injected
// invariant, and shrinking the same failure twice yields the identical
// record.
func TestTriageShrinksToStableMinimum(t *testing.T) {
	env := NewRunEnv(injectedLOPair)
	defer env.Close()
	spec := failingSpec(t, env)
	out := Execute(spec, env)
	var primary []Violation
	for _, v := range out.Violations {
		if v.Invariant == "injected" {
			primary = append(primary, v)
		}
	}
	if len(primary) == 0 {
		t.Fatalf("spec %d did not trip the injected invariant: %v", spec.Index, out.Violations)
	}

	rec := Triage(spec, primary, env)
	if rec == nil {
		t.Fatal("Triage returned nil for a deterministic failure")
	}
	if rec.Invariant != "injected" {
		t.Fatalf("record preserves %q, want %q", rec.Invariant, "injected")
	}
	min := rec.Spec
	if min.Tasks == nil {
		t.Fatal("minimized spec has no pinned task set")
	}
	if lo := len(min.Tasks.ByClass(criticality.LO)); lo != 2 {
		t.Errorf("minimized set has %d LO tasks, want 2", lo)
	}
	if hi := len(min.Tasks.ByClass(criticality.HI)); hi != 1 {
		t.Errorf("minimized set has %d HI tasks, want 1 (the NewSet floor)", hi)
	}
	if min.HorizonUs < 2_000 || min.HorizonUs >= 4_000 {
		t.Errorf("minimized horizon %dµs outside [2ms, 4ms)", min.HorizonUs)
	}
	if min.Fault != FaultNone {
		t.Errorf("minimized fault regime %q, want %q", min.Fault, FaultNone)
	}
	if min.Backend != BackendDefault {
		t.Errorf("minimized backend %q, want the default", min.Backend)
	}
	if min.OperationHours != 1 {
		t.Errorf("minimized operation hours %d, want 1", min.OperationHours)
	}
	if min.SporadicMaxDelayUs != 0 || min.PreemptOverheadUs != 0 {
		t.Errorf("minimized spec kept jitter/overhead: %+v", min)
	}
	if rec.ShrinkSteps == 0 {
		t.Error("shrinker accepted no mutations on a clearly reducible failure")
	}
	found := false
	for _, v := range rec.Violations {
		if v.Invariant == "injected" {
			found = true
		}
	}
	if !found {
		t.Fatalf("minimized spec's violations %v lost the injected invariant", rec.Violations)
	}

	// Stability: a second triage of the same failure is byte-identical.
	again := Triage(spec, primary, env)
	a, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("shrinking twice diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestTriageRecordReplaysDeterministically pins the repro pipeline end
// to end: a record written to disk, read back in a fresh environment,
// reproduces the violation on every replay.
func TestTriageRecordReplaysDeterministically(t *testing.T) {
	env := NewRunEnv(injectedLOPair)
	defer env.Close()
	spec := failingSpec(t, env)
	out := Execute(spec, env)
	rec := Triage(spec, out.Violations, env)
	if rec == nil {
		t.Fatal("Triage returned nil")
	}
	dir := t.TempDir()
	path, err := WriteRecord(dir, rec)
	if err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	loaded, err := ReadRecord(path)
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}

	// A fresh environment: replay must not depend on warmed caches.
	fresh := NewRunEnv(injectedLOPair)
	defer fresh.Close()
	for round := 0; round < 3; round++ {
		vs := Replay(loaded, fresh)
		hit := false
		for _, v := range vs {
			if v.Invariant == loaded.Invariant {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("replay %d did not reproduce %q: %v", round, loaded.Invariant, vs)
		}
	}
	// The original (unshrunk) spec must replay too — it is the
	// ground-truth fallback when a shrink is suspected of changing the
	// failure.
	origVs := Execute(loaded.Original, fresh).Violations
	hit := false
	for _, v := range origVs {
		if v.Invariant == loaded.Invariant {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("original spec did not reproduce %q: %v", loaded.Invariant, origVs)
	}
}

// TestTriageOfPassingRunIsNil pins the no-fabrication rule: a spec that
// does not fail produces no record.
func TestTriageOfPassingRunIsNil(t *testing.T) {
	env := NewRunEnv()
	defer env.Close()
	spec := DefaultSpace().SpecAt(1, 0)
	if rec := Triage(spec, []Violation{{Invariant: "made-up", Detail: "x"}}, env); rec != nil {
		t.Fatalf("Triage fabricated a record for a passing spec: %+v", rec)
	}
}

// TestSoakWritesTriageArtifacts runs a small sweep with the injected
// invariant armed and checks the engine's end-to-end failure path: the
// sweep reports violations and writes minimized records into the triage
// directory.
func TestSoakWritesTriageArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("triage sweep skipped in -short mode")
	}
	dir := t.TempDir()
	res, err := Soak(Options{
		Seed:        21,
		Runs:        48,
		Checks:      []Check{injectedLOPair},
		TriageDir:   dir,
		MaxFailures: 2,
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if !res.Failed() {
		t.Fatal("injected invariant tripped no runs in 48")
	}
	if len(res.Failures) == 0 || len(res.Failures) > 2 {
		t.Fatalf("kept %d failures, want 1..2 (MaxFailures=2)", len(res.Failures))
	}
	for _, f := range res.Failures {
		if f.Record == nil || f.Path == "" {
			t.Fatalf("failure of run %d was not triaged to disk: %+v", f.Spec.Index, f)
		}
		loaded, err := ReadRecord(f.Path)
		if err != nil {
			t.Fatalf("ReadRecord(%s): %v", f.Path, err)
		}
		if loaded.Invariant != "injected" {
			t.Fatalf("record %s preserves %q, want %q", f.Path, loaded.Invariant, "injected")
		}
	}
}
