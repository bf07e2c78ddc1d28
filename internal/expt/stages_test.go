package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// Benchmarks of the campaign and of its two analysis stages, lines 2 and
// 8 of Algorithm 1, on the sets the campaign draws.

// BenchmarkCampaignPaperFigure times one paper-size figure per op,
// PaperCampaign(500, seed) with a new seed each op: 7,500 drawn sets
// judged under 8 configurations. sets/s is the campaign's throughput.
func BenchmarkCampaignPaperFigure(b *testing.B) {
	sets := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := PaperCampaign(500, int64(i+1))
		if _, err := Campaign(cfg); err != nil {
			b.Fatal(err)
		}
		sets += len(cfg.Utils) * cfg.SetsPerPoint
	}
	b.ReportMetric(float64(sets)/b.Elapsed().Seconds(), "sets/s")
}

// stageSet is one drawn set with its line-2 profiles.
type stageSet struct {
	s        *task.Set
	nHI, nLO int
}

// stageCorpus draws perPoint Appendix C sets (HI = B, LO = C,
// f = 1e-5) at each PaperUtils() point from the campaign's streams
// (seed 1). With line8 it keeps only the sets whose line 8 the campaign
// runs: line 2 succeeds and the baseline EDF bound rejects.
func stageCorpus(tb testing.TB, perPoint int, line8 bool) []stageSet {
	tb.Helper()
	cfg := safety.DefaultConfig()
	var out []stageSet
	for ui, u := range PaperUtils() {
		d, err := gen.NewDrawer(gen.PaperParams(criticality.LevelB, criticality.LevelC, u, 1e-5), 0)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < perPoint; i++ {
			drawn, err := d.DrawKeyed(gen.SimulationKey{Seed: 1, Point: ui, Set: i})
			if err != nil {
				continue
			}
			s, err := task.NewSet(drawn.Tasks()) // own the tasks: the drawer reuses its arena
			if err != nil {
				tb.Fatal(err)
			}
			hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
			nHI, errHI := cfg.MinReexecProfile(hi, criticality.LevelB.PFHRequirement())
			nLO, errLO := cfg.MinReexecProfile(lo, criticality.LevelC.PFHRequirement())
			if line8 {
				base := float64(nHI)*s.UtilizationClass(criticality.HI)+float64(nLO)*s.UtilizationClass(criticality.LO) <= 1
				if errHI != nil || errLO != nil || base {
					continue
				}
			}
			out = append(out, stageSet{s, nHI, nLO})
		}
	}
	return out
}

// countingTest counts the schedulability tests a search asks.
type countingTest struct {
	mcsched.Test
	probes *int
}

func (c countingTest) Schedulable(s *mcsched.MCSet) bool {
	*c.probes++
	return c.Test.Schedulable(s)
}

// BenchmarkMaxSchedProfile times line 8 (core.MaxSchedProfile through a
// Scratch, as the campaign runs it) on the sets whose line 8 the
// campaign runs, under EDF-VD and EDF-VD-degrade. probes/search counts
// the schedulability tests one search asks.
func BenchmarkMaxSchedProfile(b *testing.B) {
	corpus := stageCorpus(b, 40, true)
	for _, test := range []mcsched.Test{mcsched.EDFVD{}, mcsched.EDFVDDegrade{DF: gen.FMSDegradeFactor}} {
		b.Run(test.Name(), func(b *testing.B) {
			probes := 0
			counted := countingTest{test, &probes}
			scr := core.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range corpus {
					if _, err := core.MaxSchedProfile(c.s, scr, counted, core.Profiles{NHI: c.nHI, NLO: c.nLO, NPrime: c.nHI}); err != nil {
						b.Fatal(err)
					}
				}
			}
			searches := float64(b.N * len(corpus))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/searches, "ns/search")
			b.ReportMetric(float64(probes)/searches, "probes/search")
		})
	}
}

// profileSink keeps the benchmarked line-2 results live.
var profileSink int

// BenchmarkMinReexecProfile times line 2 (safety.Config.MinReexecProfile)
// as the campaign asks it per drawn set and failure probability: n_HI
// for level B and n_LO for level C, at f = 1e-3 and 1e-5. ns/set covers
// both failure probabilities.
func BenchmarkMinReexecProfile(b *testing.B) {
	corpus := stageCorpus(b, 40, false)
	cfg := safety.DefaultConfig()
	reqHI, reqLO := criticality.LevelB.PFHRequirement(), criticality.LevelC.PFHRequirement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpus {
			for _, f := range []float64{1e-3, 1e-5} {
				if err := c.s.RestampFailProb(f); err != nil {
					b.Fatal(err)
				}
				// An unreachable requirement returns 0 and an error, which
				// the campaign counts as a line-2 failure.
				nHI, _ := cfg.MinReexecProfile(c.s.ByClass(criticality.HI), reqHI)
				nLO, _ := cfg.MinReexecProfile(c.s.ByClass(criticality.LO), reqLO)
				profileSink += nHI + nLO
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus)), "ns/set")
}
