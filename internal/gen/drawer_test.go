package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/criticality"
)

// TestDrawerMatchesTaskSet locks the pooled drawer to the allocating
// generators: for the same seed both must produce bit-identical task sets
// (same RNG consumption, same retry behavior).
func TestDrawerMatchesTaskSet(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.8, 1e-3)
	d, err := NewDrawer(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		want, err := TaskSet(rand.New(rand.NewSource(seed)), p)
		if err != nil {
			t.Fatalf("seed %d: TaskSet: %v", seed, err)
		}
		got, err := d.Draw(seed)
		if err != nil {
			t.Fatalf("seed %d: Draw: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
			t.Fatalf("seed %d: drawer diverged from TaskSet:\n got %v\nwant %v", seed, got.Tasks(), want.Tasks())
		}
	}
}

func TestDrawerMatchesUUnifastTaskSet(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5)
	d, err := NewDrawer(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		want, err := UUnifastTaskSet(rand.New(rand.NewSource(seed)), 10, p)
		if err != nil {
			t.Fatalf("seed %d: UUnifastTaskSet: %v", seed, err)
		}
		got, err := d.Draw(seed)
		if err != nil {
			t.Fatalf("seed %d: Draw: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
			t.Fatalf("seed %d: drawer diverged from UUnifastTaskSet:\n got %v\nwant %v", seed, got.Tasks(), want.Tasks())
		}
	}
}

// TestDrawerArenaReuse checks the aliasing contract: a second Draw reuses
// (and overwrites) the arena of the first.
func TestDrawerArenaReuse(t *testing.T) {
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.8, 1e-3)
	d, err := NewDrawer(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d.Draw(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d.Draw(2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("Draw must return the same arena-backed set, got distinct pointers")
	}
	want, _ := TaskSet(rand.New(rand.NewSource(2)), p)
	if !reflect.DeepEqual(s2.Tasks(), want.Tasks()) {
		t.Fatalf("second draw corrupted by arena reuse")
	}
}

// BenchmarkDrawKeyed times the Fig. 3 campaign's draw: one Appendix C
// set per paper utilization point (U = 0.30, 0.35, …, 1.00), each
// reseeded from its SimulationKey. ns/set is the cost of one draw,
// reseed included.
func BenchmarkDrawKeyed(b *testing.B) {
	var utils []float64
	for u := 0.30; u <= 1.001; u += 0.05 {
		utils = append(utils, u)
	}
	d, err := NewDrawer(PaperParams(criticality.LevelB, criticality.LevelD, utils[0], 1e-5), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ui, u := range utils {
			if err := d.Retarget(u); err != nil {
				b.Fatal(err)
			}
			if _, err := d.DrawKeyed(SimulationKey{Seed: 1, Point: ui, Set: i}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(utils)), "ns/set")
}
