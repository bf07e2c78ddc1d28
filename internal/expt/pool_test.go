package expt

import (
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
)

// workerWidths is the invariance matrix of the pool: serial,
// minimal contention, a prime that never divides the index space, and
// whatever the host really has.
func workerWidths() []string {
	return []string{"1", "2", "7", strconv.Itoa(runtime.NumCPU())}
}

// TestForEachWorkerChunkedPartition checks the cursor hands out ranges
// that exactly partition [0, n) with width ≤ chunk, across index-space
// shapes whose last range is short and whose range count is below,
// at and above the worker count.
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

// TestForEachWorkerLowestError checks the error contract across
// workers: every index still runs, and the error reported is the
// lowest failing index's, regardless of which worker hit it first.
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

// TestStealPoolSkewedLoad puts every slow index in the first quarter
// of the index space, so the worker that claims them straggles while
// the others drain the cursor. Every index must still run exactly
// once.
func TestStealPoolSkewedLoad(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "4")
	const n = 64
	visits := make([]int, n)
	if err := ForEachWorker(n, 1, func(_, i int) error {
		if i < n/4 { // the slow quarter
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

// BenchmarkPoolSkewed times the pool on a skewed synthetic workload:
// every 8th index is 16x heavier, the skew the campaign's
// cheap-test-first ordering produces. The width is pinned above the
// host CPU count so claims contend even on a single-CPU runner.
func BenchmarkPoolSkewed(b *testing.B) {
	b.Setenv("FTMC_WORKERS", "4")
	const n = 256
	sink := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ForEachWorker(n, 2, func(_, i int) error {
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
