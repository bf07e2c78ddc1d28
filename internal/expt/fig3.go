package expt

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/safety"
	"repro/internal/task"
)

// Fig3Config parameterizes one panel of the Fig. 3 acceptance-ratio
// experiment.
type Fig3Config struct {
	// HI, LO are the DO-178B levels of the two classes: the paper uses
	// HI = B with LO ∈ {D, E} (panels a, c) or LO = C (panels b, d).
	HI, LO criticality.Level
	// Mode is killing (panels a, b) or service degradation (panels c, d).
	Mode safety.AdaptMode
	// DF is the degradation factor, read in Degrade mode.
	DF float64
	// FailProbs lists the universal per-attempt failure probabilities f;
	// the paper plots f = 1e-3 and f = 1e-5.
	FailProbs []float64
	// Utils is the x-axis: nominal system utilizations U.
	Utils []float64
	// SetsPerPoint is the number of random task sets per data point (500
	// in the paper).
	SetsPerPoint int
	// Seed makes the experiment reproducible; set i at utilization index
	// u and failure-prob index p derives its RNG deterministically.
	Seed int64
	// Generator selects the workload generator; the zero value is the
	// paper's Appendix C generator.
	Generator Generator
	// TasksPerSet fixes the task count for the UUnifast generator
	// (ignored by Appendix C); 0 defaults to 10.
	TasksPerSet int
}

// Generator selects how random task sets are drawn.
type Generator int

const (
	// GenAppendixC adds u ~ U[u−, u+] tasks until the target utilization
	// is reached — the paper's generator.
	GenAppendixC Generator = iota
	// GenUUnifast draws a fixed task count with UUnifast utilizations —
	// the field-standard alternative, as a workload-shape ablation.
	GenUUnifast
)

// String names the generator.
func (g Generator) String() string {
	if g == GenUUnifast {
		return "UUnifast"
	}
	return "AppendixC"
}

// Validate reports configuration errors.
func (c Fig3Config) Validate() error {
	if !c.HI.MoreCriticalThan(c.LO) {
		return fmt.Errorf("expt: HI level %v must exceed LO level %v", c.HI, c.LO)
	}
	if err := (core.Options{Safety: safety.DefaultConfig(), Mode: c.Mode, DF: c.DF}).Validate(); err != nil {
		return fmt.Errorf("expt: %w", err)
	}
	if len(c.FailProbs) == 0 || len(c.Utils) == 0 || c.SetsPerPoint < 1 {
		return fmt.Errorf("expt: need failure probabilities, utilizations and sets per point")
	}
	return validateDraws(c.HI, c.LO, c.Utils, c.FailProbs, c.Generator, c.TasksPerSet)
}

// validateDraws rejects a grid the generator would refuse to draw from,
// with the generator's own checks: gen.Params.Validate on the paper
// parameters of every (U, f), and gen.NewDrawer on the UUnifast task
// count. lo is any LO level of the grid (the caller checks each against
// hi); the other parameters do not depend on it.
func validateDraws(hi, lo criticality.Level, utils, failProbs []float64, g Generator, tasksPerSet int) error {
	for _, u := range utils {
		for _, f := range failProbs {
			if err := gen.PaperParams(hi, lo, u, f).Validate(); err != nil {
				return fmt.Errorf("expt: U=%g f=%g: %w", u, f, err)
			}
		}
	}
	if g != GenUUnifast {
		return nil // the Appendix C generator takes no task count
	}
	_, err := gen.NewDrawer(gen.PaperParams(hi, lo, utils[0], failProbs[0]), drawerTasks(g, tasksPerSet))
	return err
}

// drawerTasks is the gen.NewDrawer task count of a generator choice: 0
// (the Appendix C generator) or the UUnifast count, 10 when unset.
func drawerTasks(g Generator, tasksPerSet int) int {
	if g != GenUUnifast {
		return 0
	}
	if tasksPerSet == 0 {
		return 10
	}
	return tasksPerSet
}

// Fig3Curve is the pair of acceptance-ratio series for one failure
// probability: with and without adaptation. The vertical gap between them
// is the shadow the paper shades.
type Fig3Curve struct {
	// FailProb is f.
	FailProb float64
	// Baseline[i] is the acceptance ratio at Utils[i] without killing or
	// degradation: minimal re-execution profiles exist and the fully
	// re-executed set satisfies the exact implicit-deadline EDF bound
	// n_HI·U_HI + n_LO·U_LO ≤ 1.
	Baseline []float64
	// Adapted[i] is the acceptance ratio with adaptation available: a set
	// counts if the baseline accepts it or FT-S (Algorithm 1) succeeds.
	// The paper adopts adaptation "only if the system is not feasible
	// otherwise".
	Adapted []float64
}

// Fig3Result is one reproduced panel.
type Fig3Result struct {
	Config Fig3Config
	Curves []Fig3Curve
}

// Fig3 runs one panel of the extensive simulations: for every (f, U) data
// point it draws SetsPerPoint random task sets with the configured
// generator and reports the fraction accepted with and without
// adaptation. Each curve runs on the campaign engine (see Campaign) over
// the one-panel, one-f CampaignConfig equal to cfg at that f; set i of
// point (pi, ui) draws from gen.SimulationKey{Seed, pi, ui, i}. Results
// are therefore deterministic in Seed and byte-identical across every
// FTMC_WORKERS value and claim schedule.
func Fig3(cfg Fig3Config) (Fig3Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{Config: cfg}
	verdicts := make([]verdict, cfg.SetsPerPoint)
	for pi, f := range cfg.FailProbs {
		cc := CampaignConfig{
			HI:           cfg.HI,
			Panels:       []CampaignPanel{{LO: cfg.LO, Mode: cfg.Mode, DF: cfg.DF}},
			FailProbs:    []float64{f},
			Utils:        cfg.Utils,
			SetsPerPoint: cfg.SetsPerPoint,
			Seed:         cfg.Seed,
			Generator:    cfg.Generator,
			TasksPerSet:  cfg.TasksPerSet,
		}
		r := newCampaignRunner(&cc)
		r.panel = pi
		curve, err := fig3Curve(cfg, f, func(ui int) ([]verdict, error) {
			return verdicts, r.evalRange(ui, 0, cfg.SetsPerPoint, verdicts)
		})
		if err != nil {
			return Fig3Result{}, err
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// Fig3Ref is Fig3 through the original allocating per-set path (a fresh
// generator run and transient FTS state per set), still seeded by the
// frozen legacy pointSeed/setSeed chain. It is the reference for
// differential tests and before/after benchmarks of the campaign engine:
// the keyed engines reproduce its draws bit for bit because the
// workload stream of gen.SimulationKey is the same chain (see
// TestSimulationKeyMatchesLegacySeeding).
func Fig3Ref(cfg Fig3Config) (Fig3Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{Config: cfg}
	for pi, f := range cfg.FailProbs {
		curve, err := fig3Curve(cfg, f, func(ui int) ([]verdict, error) {
			return fig3PointRef(cfg, pi, ui), nil
		})
		if err != nil {
			return Fig3Result{}, err
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// fig3Curve builds the curve of failure probability f point by point:
// point(ui) returns the verdicts of utilization index ui, which are
// reduced to the two acceptance ratios.
func fig3Curve(cfg Fig3Config, f float64, point func(ui int) ([]verdict, error)) (Fig3Curve, error) {
	curve := Fig3Curve{
		FailProb: f,
		Baseline: make([]float64, len(cfg.Utils)),
		Adapted:  make([]float64, len(cfg.Utils)),
	}
	for ui := range cfg.Utils {
		m := exptView.Get()
		sp := m.fig3PointNs.Start()
		verdicts, err := point(ui)
		if err != nil {
			return Fig3Curve{}, err
		}
		curve.Baseline[ui], curve.Adapted[ui] = reduceVerdicts(verdicts)
		sp.End()
		m.fig3Points.Inc()
	}
	return curve, nil
}

// pointSeed and setSeed are the frozen legacy seed derivation — the
// splitmix64 chain the engines used before gen.SimulationKey existed.
// They are kept as the reference path (Fig3Ref still seeds from them)
// and locked against the keyed derivation by
// TestSimulationKeyMatchesLegacySeeding; new code should address draws
// with gen.SimulationKey instead.
func pointSeed(seed int64, pi, ui int) int64 {
	x := legacyMix64(uint64(seed))
	x = legacyMix64(x + 0x9E3779B97F4A7C15*uint64(pi+1))
	x = legacyMix64(x + 0x9E3779B97F4A7C15*uint64(ui+1))
	return int64(x)
}

// setSeed derives the legacy RNG seed of set i at a data point.
func setSeed(point int64, i int) int64 {
	return int64(legacyMix64(uint64(point) + 0x9E3779B97F4A7C15*uint64(i+1)))
}

// legacyMix64 is the splitmix64 finalizer, spelled out locally so the
// legacy reference derivation stays independent of gen.Mix64.
func legacyMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// verdict is one task set's acceptance with and without adaptation.
type verdict struct{ base, adapt bool }

// fig3PointRef evaluates one data point through the original allocating
// path: one fresh RNG and generator run per set, transient FTS state,
// seeded by the frozen legacy chain.
func fig3PointRef(cfg Fig3Config, pi, ui int) []verdict {
	params := gen.PaperParams(cfg.HI, cfg.LO, cfg.Utils[ui], cfg.FailProbs[pi])
	point := pointSeed(cfg.Seed, pi, ui)
	verdicts := make([]verdict, cfg.SetsPerPoint)
	ForEach(cfg.SetsPerPoint, func(i int) error {
		rng := rand.New(rand.NewSource(setSeed(point, i)))
		verdicts[i] = evalOneRef(cfg, params, rng)
		return nil
	})
	return verdicts
}

func reduceVerdicts(verdicts []verdict) (baseline, adapted float64) {
	var nb, na int
	for _, v := range verdicts {
		if v.base {
			nb++
		}
		if v.adapt {
			na++
		}
	}
	n := float64(len(verdicts))
	return float64(nb) / n, float64(na) / n
}

// evalOneRef draws one random set with the allocating generators and
// judges it — the pre-pooling reference path.
func evalOneRef(cfg Fig3Config, params gen.Params, rng *rand.Rand) verdict {
	var s *task.Set
	var err error
	if n := drawerTasks(cfg.Generator, cfg.TasksPerSet); n > 0 {
		s, err = gen.UUnifastTaskSet(rng, n, params)
	} else {
		s, err = gen.TaskSet(rng, params)
	}
	if err != nil {
		return verdict{} // degenerate draw: reject both ways
	}
	return judge(s, cfg.Mode, cfg.DF)
}

// judge applies the Appendix C acceptance criterion to one set: accept
// outright when the fully re-executed set passes the exact EDF bound,
// otherwise accept iff FT-S succeeds under the adaptation mode (and df).
func judge(s *task.Set, mode safety.AdaptMode, df float64) (v verdict) {
	scfg := safety.DefaultConfig()
	dual := s.Dual()
	nHI, errHI := scfg.MinReexecProfile(s.ByClass(criticality.HI), dual.Requirement(criticality.HI))
	nLO, errLO := scfg.MinReexecProfile(s.ByClass(criticality.LO), dual.Requirement(criticality.LO))
	if errHI == nil && errLO == nil {
		total := s.ScaledUtilization(criticality.HI, nHI) + s.ScaledUtilization(criticality.LO, nLO)
		v.base = total <= 1
	}
	if v.base {
		// Adaptation is only adopted when the system is infeasible
		// otherwise (Appendix C).
		v.adapt = true
		return v
	}
	res, err := core.FTS(s, core.Options{Safety: scfg, Mode: mode, DF: df})
	v.adapt = err == nil && res.OK
	return v
}

// PaperUtils is the utilization axis used by the reproduction: 0.3 to 1.0
// in steps of 0.05. The low end matters for the LO = C panels (3b, 3d),
// whose re-execution profiles multiply the LO utilization so acceptance
// collapses well before U = 1.
func PaperUtils() []float64 {
	var utils []float64
	for u := 0.30; u <= 1.001; u += 0.05 {
		utils = append(utils, u)
	}
	return utils
}

// PanelConfig returns the configuration of one of the four published
// panels ("3a", "3b", "3c", "3d") with the given sample count and seed.
func PanelConfig(panel string, setsPerPoint int, seed int64) (Fig3Config, error) {
	cfg := Fig3Config{
		HI:           criticality.LevelB,
		FailProbs:    []float64{1e-3, 1e-5},
		Utils:        PaperUtils(),
		SetsPerPoint: setsPerPoint,
		Seed:         seed,
	}
	switch panel {
	case "3a":
		cfg.LO, cfg.Mode = criticality.LevelD, safety.Kill
	case "3b":
		cfg.LO, cfg.Mode = criticality.LevelC, safety.Kill
	case "3c":
		cfg.LO, cfg.Mode, cfg.DF = criticality.LevelD, safety.Degrade, gen.FMSDegradeFactor
	case "3d":
		cfg.LO, cfg.Mode, cfg.DF = criticality.LevelC, safety.Degrade, gen.FMSDegradeFactor
	default:
		return Fig3Config{}, fmt.Errorf("expt: unknown panel %q (want 3a..3d)", panel)
	}
	return cfg, nil
}
