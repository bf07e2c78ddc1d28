package sim

import (
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/safety"
	"repro/internal/timeunit"
)

// BenchmarkSimulatorHyperperiod measures the event loop over exactly one
// hyperperiod of Example 3.1 (lcm of the periods = 12.6 s) under EDF-VD
// with random faults — the unit simulator throughput is quoted in.
// allocs/op tracks the job pool: after warm-up, releases must not
// allocate.
func BenchmarkSimulatorHyperperiod(b *testing.B) {
	s := example31(1e-3)
	probs := []float64{1e-3, 1e-3, 1e-3, 1e-3, 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Run(Config{
			Set: s, NHI: 3, NLO: 1, NPrime: 2,
			Mode: safety.Kill, Policy: PolicyEDFVD,
			Horizon: timeunit.Milliseconds(12600),
			Faults:  NewRandomFaults(rand.New(rand.NewSource(int64(i))), probs),
		})
		if err != nil {
			b.Fatal(err)
		}
		if stats.DeadlineMisses(criticality.HI) != 0 {
			b.Fatal("HI deadline miss")
		}
	}
}
