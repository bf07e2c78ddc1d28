package gen

import (
	"testing"

	"repro/internal/criticality"
)

// TestStreamsDistinctAcrossSubsystems checks that the per-subsystem
// seeds at one coordinate are pairwise distinct (decorrelation is
// statistical; distinctness is the cheap smoke test).
func TestStreamsDistinctAcrossSubsystems(t *testing.T) {
	key := SimulationKey{Seed: 7, Point: 2, Set: 5}
	seen := map[int64]Subsystem{}
	for _, sub := range []Subsystem{SubsystemWorkload, SubsystemFaults, SubsystemScenario} {
		s := key.Stream(sub)
		if prev, dup := seen[s]; dup {
			t.Fatalf("subsystems %v and %v share stream %d", prev, sub, s)
		}
		seen[s] = sub
	}
}

// TestStreamCoordinateSensitivity checks that changing any single
// coordinate changes the workload stream — the property that makes
// lease boundaries invisible: a set's stream is a pure function of its
// own coordinates.
func TestStreamCoordinateSensitivity(t *testing.T) {
	base := SimulationKey{Seed: 3, Panel: 1, Point: 2, Set: 4}
	ref := base.Stream(SubsystemWorkload)
	for name, k := range map[string]SimulationKey{
		"seed":  {Seed: 4, Panel: 1, Point: 2, Set: 4},
		"panel": {Seed: 3, Panel: 2, Point: 2, Set: 4},
		"point": {Seed: 3, Panel: 1, Point: 3, Set: 4},
		"set":   {Seed: 3, Panel: 1, Point: 2, Set: 5},
	} {
		if k.Stream(SubsystemWorkload) == ref {
			t.Errorf("changing %s did not change the workload stream", name)
		}
	}
}

// TestDrawKeyedMatchesDraw pins the Drawer integration: DrawKeyed(k) is
// Draw(k.Stream(SubsystemWorkload)), so keyed callers and legacy
// seed-passing callers produce bit-identical sets.
func TestDrawKeyedMatchesDraw(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.7, 1e-5)
	d1, err := NewDrawer(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDrawer(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for set := 0; set < 5; set++ {
		k := SimulationKey{Seed: 11, Point: 2, Set: set}
		s1, err1 := d1.DrawKeyed(k)
		s2, err2 := d2.Draw(k.Stream(SubsystemWorkload))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("set %d: DrawKeyed err=%v, Draw err=%v", set, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if s1.String() != s2.String() {
			t.Fatalf("set %d: keyed draw diverged:\n%v\n%v", set, s1, s2)
		}
	}
}
