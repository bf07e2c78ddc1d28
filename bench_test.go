package ftmc

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md. The Fig. 3 benches run at a
// reduced 20 sets per data point so a full -bench=. sweep stays in
// seconds; the published 500-set resolution is regenerated with
// cmd/ftmc-accept.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/explore"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/safety"
)

// BenchmarkTable1PFHRequirements measures the DO-178B requirement lookup
// (Table 1) across all levels.
func BenchmarkTable1PFHRequirements(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for _, l := range []Level{LevelA, LevelB, LevelC} {
			sum += l.PFHRequirement()
		}
	}
	_ = sum
}

// BenchmarkTable2Example31Analysis runs the complete FT-EDF-VD design
// procedure on the Table 2 task set (profiles, safety bounds,
// schedulability, conversion).
func BenchmarkTable2Example31Analysis(b *testing.B) {
	s := example31()
	cfg := DefaultSafetyConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AnalyzeEDFVD(s, cfg)
		if err != nil || !res.OK {
			b.Fatal(res, err)
		}
	}
}

// BenchmarkTable3Conversion measures the Lemma 4.1 problem conversion
// producing the Table 3 MC task set.
func BenchmarkTable3Conversion(b *testing.B) {
	s := example31()
	p := Profiles{NHI: 3, NLO: 1, NPrime: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Convert(s, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4FMSGeneration draws Table 4 FMS instances.
func BenchmarkTable4FMSGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FMS(rng).Len() != 11 {
			b.Fatal("bad instance")
		}
	}
}

// BenchmarkFig1FMSKilling regenerates the Fig. 1 sweep (UMC and pfh(LO)
// vs n′_HI under killing, OS = 10 h).
func BenchmarkFig1FMSKilling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig1()
		if err != nil || len(r.Points) != 4 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2FMSDegradation regenerates the Fig. 2 sweep (service
// degradation, df = 6).
func BenchmarkFig2FMSDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig2()
		if err != nil || len(r.Points) != 4 {
			b.Fatal(err)
		}
	}
}

// benchFig3 runs one acceptance-ratio panel at reduced resolution.
func benchFig3(b *testing.B, panel string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg, err := expt.PanelConfig(panel, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := expt.Fig3(cfg)
		if err != nil || len(r.Curves) != 2 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aAcceptKillingDE: killing, LO ∈ {D, E}.
func BenchmarkFig3aAcceptKillingDE(b *testing.B) { benchFig3(b, "3a") }

// BenchmarkFig3bAcceptKillingC: killing, LO = C.
func BenchmarkFig3bAcceptKillingC(b *testing.B) { benchFig3(b, "3b") }

// BenchmarkFig3cAcceptDegradeDE: degradation, LO ∈ {D, E}.
func BenchmarkFig3cAcceptDegradeDE(b *testing.B) { benchFig3(b, "3c") }

// BenchmarkFig3dAcceptDegradeC: degradation, LO = C.
func BenchmarkFig3dAcceptDegradeC(b *testing.B) { benchFig3(b, "3d") }

// BenchmarkSafetyKillingPFH isolates the cost of the eq. (5) bound on the
// FMS workload (≈ 36 000 π-points per LO task over OS = 10 h). Its naive
// per-point twin is BenchmarkSafetyKillingPFHNaive in internal/safety,
// where the reference kernel lives as test code.
func BenchmarkSafetyKillingPFH(b *testing.B) {
	s := FMSAt(gen.DefaultFMSKillSeed)
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	adapt, err := safety.NewUniformAdaptation(cfg, s.ByClass(HI), 2)
	if err != nil {
		b.Fatal(err)
	}
	lo := s.ByClass(LO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cfg.KillingPFHLOUniform(lo, 2, adapt) <= 0 {
			b.Fatal("bad bound")
		}
	}
}

// BenchmarkSimulatorHour measures runtime throughput: one simulated hour
// of the Example 3.1 system under EDF-VD with random faults.
func BenchmarkSimulatorHour(b *testing.B) {
	s := example31()
	probs := []float64{1e-3, 1e-3, 1e-3, 1e-3, 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Simulate(SimConfig{
			Set: s, NHI: 3, NLO: 1, NPrime: 2,
			Mode: Kill, Policy: PolicyEDFVD, Horizon: Hours(1),
			Faults: RandomFaults(rand.New(rand.NewSource(int64(i))), probs),
		})
		if err != nil {
			b.Fatal(err)
		}
		if stats.DeadlineMisses(HI) != 0 {
			b.Fatal("HI deadline miss")
		}
	}
}

// BenchmarkAblationSchedulers compares the pluggable S inside FT-S
// (Appendix B remark): EDF-VD vs AMC-rtb vs SMC on the same workloads.
func BenchmarkAblationSchedulers(b *testing.B) {
	var sets []*Set
	for i := int64(0); i < 10; i++ {
		s, err := RandomTaskSet(rand.New(rand.NewSource(100+i)),
			PaperGenParams(LevelB, LevelD, 0.8, 1e-5))
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, s)
	}
	for _, test := range []SchedulabilityTest{EDFVD, AMCrtb, SMC, DBFTune} {
		b.Run(test.Name(), func(b *testing.B) {
			accepted := 0
			for i := 0; i < b.N; i++ {
				for _, s := range sets {
					res, err := Analyze(s, Options{Safety: DefaultSafetyConfig(), Mode: Kill, Test: test})
					if err != nil {
						b.Fatal(err)
					}
					if res.OK {
						accepted++
					}
				}
			}
			_ = accepted
		})
	}
}

// BenchmarkAblationPerTaskProfiles contrasts the uniform re-execution
// profile of §4.2 with a per-task greedy assignment (each task receives
// the smallest n_i whose contribution stays under an equal share of the
// requirement). The per-task variant can use fewer total attempts; the
// bench reports the analysis costs side by side.
func BenchmarkAblationPerTaskProfiles(b *testing.B) {
	s := FMSAt(gen.DefaultFMSKillSeed)
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	hi := s.ByClass(HI)
	req := criticality.LevelB.PFHRequirement()

	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.MinReexecProfile(hi, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-task", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ns := make([]int, len(hi))
			share := req / float64(len(hi))
			for ti := range hi {
				one := hi[ti : ti+1]
				for n := 1; n <= safety.MaxProfile; n++ {
					if cfg.PlainPFHUniform(one, n) <= share {
						ns[ti] = n
						break
					}
				}
				if ns[ti] == 0 {
					b.Fatal("per-task profile not found")
				}
			}
			if got := cfg.PlainPFH(hi, ns); got > req {
				b.Fatalf("per-task profiles violate the requirement: %g", got)
			}
		}
	})
}

// BenchmarkAblationUniformVsPerTaskFTS contrasts Algorithm 1 (uniform
// profiles, the paper's §4.2 restriction) with the per-task relaxation:
// same workloads, same S; the per-task variant pays a more expensive
// profile search for higher acceptance.
func BenchmarkAblationUniformVsPerTaskFTS(b *testing.B) {
	var sets []*Set
	for i := int64(0); i < 10; i++ {
		s, err := RandomTaskSet(rand.New(rand.NewSource(500+i)),
			PaperGenParams(LevelB, LevelD, 0.75, 1e-3))
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, s)
	}
	opt := Options{Safety: DefaultSafetyConfig(), Mode: Kill}
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				if _, err := Analyze(s, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("per-task", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				if _, err := AnalyzePerTask(s, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkConvertedEDFVDTest isolates the eq. (10) test on the converted
// Example 3.1 set.
func BenchmarkConvertedEDFVDTest(b *testing.B) {
	conv := core.MustConvert(example31(), core.Profiles{NHI: 3, NLO: 1, NPrime: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !EDFVD.Schedulable(conv) {
			b.Fatal("must be schedulable")
		}
	}
}

// BenchmarkPlainPFH isolates the eq. (2) bound.
func BenchmarkPlainPFH(b *testing.B) {
	s := example31()
	cfg := DefaultSafetyConfig()
	hi := s.ByClass(HI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cfg.PlainPFHUniform(hi, 3) <= 0 {
			b.Fatal("bad pfh")
		}
	}
}

// BenchmarkSimulatorModeSwitch exercises the switch-heavy path: high
// fault rates force a mode switch in nearly every run.
func BenchmarkSimulatorModeSwitch(b *testing.B) {
	s := example31()
	probs := []float64{0.3, 0.3, 0.1, 0.1, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Simulate(SimConfig{
			Set: s, NHI: 3, NLO: 1, NPrime: 2,
			Mode: Kill, Policy: PolicyEDFVD, Horizon: 60 * Second,
			Faults: RandomFaults(rand.New(rand.NewSource(int64(i))), probs),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = stats
	}
}

// BenchmarkDBFTune isolates the demand-bound analysis with deadline
// tuning on the converted Example 3.1 set.
func BenchmarkDBFTune(b *testing.B) {
	conv := core.MustConvert(example31(), core.Profiles{NHI: 3, NLO: 1, NPrime: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !DBFTune.Schedulable(conv) {
			b.Fatal("must be schedulable")
		}
	}
}

// BenchmarkAblationDegradeUniformVsMulti compares the uniform eq. (12)
// test with its per-task generalization on the same sets.
func BenchmarkAblationDegradeUniformVsMulti(b *testing.B) {
	conv := core.MustConvert(example31(), core.Profiles{NHI: 3, NLO: 1, NPrime: 1})
	dfs := map[string]float64{"τ3": 4, "τ4": 8, "τ5": 12}
	b.Run("uniform", func(b *testing.B) {
		test := EDFVDDegrade(6)
		for i := 0; i < b.N; i++ {
			test.Schedulable(conv)
		}
	})
	b.Run("per-task", func(b *testing.B) {
		test := EDFVDDegradeMulti(dfs, 6)
		for i := 0; i < b.N; i++ {
			test.Schedulable(conv)
		}
	})
}

// BenchmarkSimulatorDMHour measures the fixed-priority runtime (the
// counterpart to BenchmarkSimulatorHour's EDF-VD).
func BenchmarkSimulatorDMHour(b *testing.B) {
	s := example31()
	probs := []float64{1e-3, 1e-3, 1e-3, 1e-3, 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Simulate(SimConfig{
			Set: s, NHI: 3, NLO: 1, NPrime: 2,
			Mode: Kill, Policy: PolicyDM, Horizon: Hours(1),
			Faults: RandomFaults(rand.New(rand.NewSource(int64(i))), probs),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = stats
	}
}

// BenchmarkFTSAnalyzeFMS runs Algorithm 1 (FT-EDF-VD, killing) on the FMS
// case study at OS = 10 h: line 2, the line-4 search over eq. (5) and
// the line-8 schedulability search on one task set.
func BenchmarkFTSAnalyzeFMS(b *testing.B) {
	s := FMSAt(gen.DefaultFMSKillSeed)
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeEDFVD(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreDesignSpace measures the full design-space enumeration
// on the FMS case study.
func BenchmarkExploreDesignSpace(b *testing.B) {
	s := FMSAt(gen.DefaultFMSKillSeed)
	opt := exploreOptions()
	for i := 0; i < b.N; i++ {
		ds, err := explore.Explore(s, opt)
		if err != nil || len(ds) == 0 {
			b.Fatal(err)
		}
	}
}

func exploreOptions() explore.Options {
	return explore.Options{
		Safety: safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true},
	}
}
