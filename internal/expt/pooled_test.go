package expt

import (
	"reflect"
	"testing"
)

// smallPanel trims a published panel to a differential-test size that
// still covers both failure probabilities and a feasible plus a stressed
// utilization.
func smallPanel(t testing.TB, panel string) Fig3Config {
	cfg, err := PanelConfig(panel, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Utils = []float64{0.6, 0.85}
	return cfg
}

// generatorCases are the workload generators the differential tests run
// the engines under: the paper's Appendix C generator and UUnifast with
// an explicit and with the default task count (0, which means 10).
var generatorCases = []struct {
	gen   Generator
	tasks int
}{{GenAppendixC, 0}, {GenUUnifast, 8}, {GenUUnifast, 0}}

// TestFig3PooledMatchesRef locks the campaign engine behind Fig3 to the
// original allocating per-set path: for identical seeds the acceptance
// ratios must agree exactly, on a killing and a degradation panel, for
// both failure probabilities and under every generator — both engines
// build their drawers from the generator choice and retarget them along
// the U axis.
func TestFig3PooledMatchesRef(t *testing.T) {
	for _, gc := range generatorCases {
		for _, panel := range []string{"3a", "3c"} {
			cfg := smallPanel(t, panel)
			cfg.Generator, cfg.TasksPerSet = gc.gen, gc.tasks
			got, err := Fig3(cfg)
			if err != nil {
				t.Fatalf("panel %s %v/%d: Fig3: %v", panel, gc.gen, gc.tasks, err)
			}
			want, err := Fig3Ref(cfg)
			if err != nil {
				t.Fatalf("panel %s %v/%d: Fig3Ref: %v", panel, gc.gen, gc.tasks, err)
			}
			if !reflect.DeepEqual(got.Curves, want.Curves) {
				t.Fatalf("panel %s %v/%d: Fig3 diverged from reference:\n got %+v\nwant %+v",
					panel, gc.gen, gc.tasks, got.Curves, want.Curves)
			}
		}
	}
}

// TestFig3WorkerInvariance checks the determinism contract: the panel is
// byte-identical under FTMC_WORKERS = 1, 4 and 16, because every set's
// verdict depends only on its keyed RNG stream (gen.SimulationKey),
// never on which worker evaluates it.
func TestFig3WorkerInvariance(t *testing.T) {
	cfg := smallPanel(t, "3a")
	var base Fig3Result
	for i, w := range []string{"1", "4", "16"} {
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
			t.Fatalf("FTMC_WORKERS=%s changed the panel:\n got %+v\nwant %+v", w, res.Curves, base.Curves)
		}
	}
}

// TestForEachWorkerCoversAllIndices checks the chunked dispatcher visits
// every index exactly once and reports the lowest failing index, for
// chunk sizes around the boundary cases.
func TestForEachWorkerCoversAllIndices(t *testing.T) {
	t.Setenv("FTMC_WORKERS", "4")
	for _, chunk := range []int{1, 3, 8, 100} {
		const n = 37
		visits := make([]int, n)
		if err := ForEachWorker(n, chunk, func(w, i int) error {
			if w < 0 || w >= 4 {
				t.Errorf("chunk %d: worker id %d out of range", chunk, w)
			}
			visits[i]++
			return nil
		}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("chunk %d: index %d visited %d times", chunk, i, v)
			}
		}
	}
}

// benchFig3Point times one Fig. 3 data point — panel 3a at U = 0.8 and
// f = 1e-3, 50 sets — as a one-point, one-f panel run through fig3.
func benchFig3Point(b *testing.B, fig3 func(Fig3Config) (Fig3Result, error)) {
	b.Setenv("FTMC_WORKERS", "1")
	cfg, err := PanelConfig("3a", 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Utils = []float64{0.8}
	cfg.FailProbs = cfg.FailProbs[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if c := res.Curves[0]; c.Baseline[0] < 0 || c.Adapted[0] < c.Baseline[0] {
			b.Fatal("bad ratios")
		}
	}
}

// BenchmarkFig3PointPooled measures one Fig. 3 data point through Fig3,
// the campaign engine, at FTMC_WORKERS=1 (allocs/op ≈ fixed point
// overhead, not per set).
func BenchmarkFig3PointPooled(b *testing.B) { benchFig3Point(b, Fig3) }

// BenchmarkFig3PointRef is the same point through the original allocating
// path, Fig3Ref; the ratio to BenchmarkFig3PointPooled is the engine's
// speedup.
func BenchmarkFig3PointRef(b *testing.B) { benchFig3Point(b, Fig3Ref) }
