package expt

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/criticality"
	"repro/internal/obsv"
)

// workerWidths is the invariance matrix of the stealing pool: serial,
// minimal contention, a prime that never divides the index space, and
// whatever the host really has.
func workerWidths() []string {
	return []string{"1", "2", "7", strconv.Itoa(runtime.NumCPU())}
}

// TestForEachWorkerChunkedPartition checks the stealing scheduler hands
// out ranges that exactly partition [0, n) with width ≤ chunk, across
// index-space shapes that exercise uneven initial splits and steals.
func TestForEachWorkerChunkedPartition(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "5")
	type span struct{ start, end int }
	for _, tc := range []struct{ n, chunk int }{
		{1, 1}, {5, 2}, {37, 3}, {100, 8}, {64, 64}, {257, 16},
	} {
		var mu sync.Mutex
		var spans []span
		err := ForEachWorkerChunked(tc.n, tc.chunk, func(w, start, end int) error {
			if w < 0 || w >= 5 {
				t.Errorf("n=%d chunk=%d: worker id %d out of range", tc.n, tc.chunk, w)
			}
			if end-start < 1 || end-start > tc.chunk {
				t.Errorf("n=%d chunk=%d: range [%d,%d) width out of bounds", tc.n, tc.chunk, start, end)
			}
			mu.Lock()
			spans = append(spans, span{start, end})
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d chunk=%d: %v", tc.n, tc.chunk, err)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		at := 0
		for _, s := range spans {
			if s.start != at {
				t.Fatalf("n=%d chunk=%d: gap or overlap at %d (next range starts %d)", tc.n, tc.chunk, at, s.start)
			}
			at = s.end
		}
		if at != tc.n {
			t.Fatalf("n=%d chunk=%d: ranges cover [0,%d), want [0,%d)", tc.n, tc.chunk, at, tc.n)
		}
	}
}

// TestForEachWorkerLowestError checks the error contract under stealing:
// every index still runs, and the error reported is the lowest failing
// index's, regardless of which worker hit it first.
func TestForEachWorkerLowestError(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "4")
	const n = 101
	fails := map[int]bool{17: true, 18: true, 63: true, 100: true}
	visits := make([]int, n)
	err := ForEachWorker(n, 5, func(_, i int) error {
		visits[i]++
		if fails[i] {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 17" {
		t.Fatalf("got error %v, want index 17", err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestStealPoolSkewedLoad forces steals: one initial span holds all the
// slow indices, so its owner straggles and the other workers must take
// work from it. Every index must still run exactly once.
func TestStealPoolSkewedLoad(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "4")
	const n = 64
	visits := make([]int, n)
	if err := ForEachWorker(n, 1, func(_, i int) error {
		if i < n/4 { // the first worker's initial span
			time.Sleep(time.Millisecond)
		}
		visits[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestStealPoolBoundedSteals pins the no-empty-steal guarantee: every
// successful steal transfers at least one pending index, so the total
// steal count over a run is strictly below n (each steal splits one
// span into two non-empty parts). Before the guard, a thief could
// "steal" the empty upper half of a 1-wide span in a spin loop that
// never yielded the processor — millions of counted steals and a
// ~100x slowdown on a single-CPU host.
func TestStealPoolBoundedSteals(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "4")
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	const n, chunk = 256, 2
	before := exptView.Get().poolSteals.Value()
	if err := ForEachWorker(n, chunk, func(_, i int) error {
		if i%8 == 0 { // skewed: stragglers force steal traffic
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if steals := exptView.Get().poolSteals.Value() - before; steals >= n {
		t.Fatalf("%d steals over %d indices: steals must transfer work", steals, n)
	}
}

// TestForEachWorkerInvariance pins the schedule-independence contract
// directly on the pool: a pure function of the index produces the same
// result vector at every worker width.
func TestForEachWorkerInvariance(t *testing.T) {
	const n = 997
	base := make([]uint64, n)
	for _, w := range workerWidths() {
		t.Setenv("FTMC_WORKERS", w)
		got := make([]uint64, n)
		if err := ForEachWorker(n, 7, func(_, i int) error {
			x := uint64(i) * 0x9e3779b97f4a7c15
			x ^= x >> 29
			got[i] = x
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if w == "1" {
			copy(base, got)
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("FTMC_WORKERS=%s changed per-index results", w)
		}
	}
}

// TestFig3StealInvariance runs a Fig. 3 panel at every pool width of the
// invariance matrix — the engine mixes per-worker arenas, caches and the
// batched kernel, and none of it may leak into the acceptance ratios.
func TestFig3StealInvariance(t *testing.T) {
	cfg := smallPanel(t, "3b")
	var base Fig3Result
	for i, w := range workerWidths() {
		t.Setenv("FTMC_WORKERS", w)
		res, err := Fig3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Curves, base.Curves) {
			t.Fatalf("FTMC_WORKERS=%s changed panel 3b:\n got %+v\nwant %+v", w, res.Curves, base.Curves)
		}
	}
}

// TestDFSweepWorkerInvariance runs the sensitivity sweep across the
// invariance matrix; DFPoints carry averaged floats, so any
// schedule-dependent accumulation order would show up here.
func TestDFSweepWorkerInvariance(t *testing.T) {
	dfs := []float64{1.5, 4}
	var base []DFPoint
	for i, w := range workerWidths() {
		t.Setenv("FTMC_WORKERS", w)
		pts, err := DFSweep(criticality.LevelB, criticality.LevelC, 0.7, 1e-5, dfs, 12, 11)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = pts
			continue
		}
		if !reflect.DeepEqual(pts, base) {
			t.Fatalf("FTMC_WORKERS=%s changed the DF sweep:\n got %+v\nwant %+v", w, pts, base)
		}
	}
}

// TestWorkersBadEnv checks the satellite contract: an unparseable
// FTMC_WORKERS falls back to NumCPU instead of panicking or silently
// serializing, and the pool still runs.
func TestWorkersBadEnv(t *testing.T) {
	for _, v := range []string{"lots", "-3", "0", "2.5", " 4"} {
		t.Setenv("FTMC_WORKERS", v)
		if got := Workers(); got != runtime.NumCPU() {
			t.Errorf("FTMC_WORKERS=%q: Workers() = %d, want NumCPU %d", v, got, runtime.NumCPU())
		}
	}
	t.Setenv("FTMC_WORKERS", "junk")
	var ran atomic.Int64
	if err := ForEach(3, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("pool ran %d of 3 items under invalid FTMC_WORKERS", n)
	}
}

// TestForEachWorkerFixedMatches keeps the A/B baseline honest: the fixed
// cursor and the stealing pool visit the same indices with the same
// error semantics.
func TestForEachWorkerFixedMatches(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "3")
	const n = 50
	for _, impl := range []struct {
		name string
		run  func(n, chunk int, fn func(worker, i int) error) error
	}{{"steal", ForEachWorker}, {"fixed", ForEachWorkerFixed}} {
		visits := make([]int, n)
		err := impl.run(n, 4, func(_, i int) error {
			visits[i]++
			if i == 20 || i == 33 {
				return errors.New(strconv.Itoa(i))
			}
			return nil
		})
		if err == nil || err.Error() != "20" {
			t.Fatalf("%s: got error %v, want 20", impl.name, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("%s: index %d visited %d times", impl.name, i, v)
			}
		}
	}
}

// benchSkewedPool is the scheduler A/B workload of the benchcheck
// gate: every 8th index is 16x heavier, the skew the campaign's
// cheap-test-first ordering produces. The width is pinned above the
// host CPU count so the steal machinery engages even on a single-CPU
// runner — the regime where an empty-transfer steal once spun a thief
// into a ~100x collapse.
func benchSkewedPool(b *testing.B, run func(n, chunk int, fn func(worker, i int) error) error) {
	b.Setenv("FTMC_WORKERS", "4")
	const n = 256
	sink := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(n, 2, func(_, i int) error {
			iters := 400
			if i%8 == 0 {
				iters = 6400
			}
			x := uint64(i) + 1
			for k := 0; k < iters; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[i] = x
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolStealSkewed(b *testing.B) { benchSkewedPool(b, ForEachWorker) }
func BenchmarkPoolFixedSkewed(b *testing.B) { benchSkewedPool(b, ForEachWorkerFixed) }
