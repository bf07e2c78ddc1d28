// ftmc-report runs the complete reproduction — every table and figure of
// the paper plus this repository's extension studies — and emits a
// markdown report of paper-expected versus measured values. EXPERIMENTS.md
// is curated from this tool's output.
//
// Usage:
//
//	ftmc-report [-sets 200] [-instances 100] [-seed 1]
//	            [-distributed 0] [-worker-bin ftmc-worker] [-dist-listen addr]
//	            [-lease-sets 64] [-lease-timeout 0]
//
// With the defaults the full run takes about 0.15 s on a 2-CPU host.
//
// -distributed N shards the Fig. 3 campaign across N protocol workers
// (see internal/expt's DistCampaign): subprocesses of -worker-bin when
// given, TCP workers accepted on -dist-listen when given (start them
// with `ftmc-worker -connect`), else N in-process workers. The merged
// output is byte-identical to the single-process run — stdout carries
// only the report; lease accounting and any worker build-mismatch
// warnings go to stderr.
//
// -lease-sets sets the sets per lease and -lease-timeout the deadline
// after which a silent worker's leases are reassigned. Both are
// scheduling knobs — neither changes the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	ftmc "repro"
	"repro/internal/criticality"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/safety"
)

// distFlags is the scale-out configuration of the Fig. 3 campaign.
type distFlags struct {
	procs        int
	workerBin    string
	listen       string
	leaseSets    int
	leaseTimeout time.Duration
}

func main() {
	sets := flag.Int("sets", 200, "random task sets per Fig. 3 data point")
	instances := flag.Int("instances", 100, "FMS instances for the robustness study")
	seed := flag.Int64("seed", 1, "experiment seed")
	var dist distFlags
	flag.IntVar(&dist.procs, "distributed", 0, "shard the Fig. 3 campaign across this many workers (0 = single process)")
	flag.StringVar(&dist.workerBin, "worker-bin", "", "ftmc-worker binary to spawn as subprocess workers")
	flag.StringVar(&dist.listen, "dist-listen", "", "accept TCP workers on this address instead of spawning")
	flag.IntVar(&dist.leaseSets, "lease-sets", 64, "task sets per lease")
	flag.DurationVar(&dist.leaseTimeout, "lease-timeout", 0, "per-lease deadline before reassignment (0 = none)")
	flag.Parse()

	fmt.Println("# Reproduction report")
	fmt.Println()

	example31()
	fmsFigures()
	fig3(*sets, *seed, &dist)
	sensitivity(*instances, *seed)
	runtimeValidation()
}

// run executes the campaign under the selected topology. The result is
// byte-identical across all of them (expt.DistCampaign's contract), so
// the report body never depends on the flags.
func (d *distFlags) run(cfg expt.CampaignConfig) (expt.CampaignResult, error) {
	if d.procs <= 0 {
		return expt.Campaign(cfg)
	}
	var conns []io.ReadWriteCloser
	var err error
	switch {
	case d.listen != "":
		ln, lerr := net.Listen("tcp", d.listen)
		if lerr != nil {
			return expt.CampaignResult{}, lerr
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "ftmc-report: waiting for %d workers on %s (ftmc-worker -connect)\n", d.procs, ln.Addr())
		conns, err = expt.AcceptWorkers(ln, d.procs)
	case d.workerBin != "":
		conns, err = expt.StartWorkerProcs(d.workerBin, d.procs)
	default:
		conns = expt.PipeWorkers(d.procs)
	}
	if err != nil {
		return expt.CampaignResult{}, err
	}
	res, rep, err := expt.DistCampaign(cfg, conns, expt.DistOptions{
		LeaseSets:    d.leaseSets,
		LeaseTimeout: d.leaseTimeout,
	})
	if err != nil {
		return expt.CampaignResult{}, err
	}
	fmt.Fprintf(os.Stderr, "ftmc-report: distributed campaign: %d workers (%d lost), %d leases (%d reassigned), %d B out / %d B in, manifest digest %s\n",
		rep.Workers, rep.WorkerFailures, rep.Leases, rep.Reassigned, rep.BytesOut, rep.BytesIn, rep.Manifest.Digest)
	for _, m := range rep.Manifest.Mismatches {
		fmt.Fprintf(os.Stderr, "ftmc-report: warning: worker build mismatch: %s\n", m)
	}
	return res, nil
}

func example31() {
	fmt.Println("## Example 3.1 / Tables 2–3")
	fmt.Println()
	mk := func(name string, T, C int64, l ftmc.Level) ftmc.Task {
		return ftmc.Task{Name: name, Period: ftmc.Milliseconds(T), Deadline: ftmc.Milliseconds(T),
			WCET: ftmc.Milliseconds(C), Level: l, FailProb: 1e-5}
	}
	set := ftmc.MustNewSet([]ftmc.Task{
		mk("τ1", 60, 5, ftmc.LevelB), mk("τ2", 25, 4, ftmc.LevelB),
		mk("τ3", 40, 7, ftmc.LevelD), mk("τ4", 90, 6, ftmc.LevelD), mk("τ5", 70, 8, ftmc.LevelD),
	})
	res, err := ftmc.AnalyzeEDFVD(set, ftmc.DefaultSafetyConfig())
	if err != nil {
		fatal(err)
	}
	u := set.ScaledUtilization(ftmc.HI, 3) + set.ScaledUtilization(ftmc.LO, 1)
	fmt.Println("| quantity | paper | measured |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| n_HI (minimal) | 3 | %d |\n", res.NHI)
	fmt.Printf("| n_LO (minimal) | 1 | %d |\n", res.NLO)
	fmt.Printf("| pfh(HI) at n_HI = 3 | 2.04e-10 | %.3g |\n", res.PFHHI)
	fmt.Printf("| U without killing | 1.08595 | %.5f |\n", u)
	fmt.Printf("| killing profile n'_HI | 2 (Table 3 EDF-VD schedulable) | %d (OK=%v) |\n", res.Profiles.NPrime, res.OK)
	fmt.Println()
}

func fmsFigures() {
	for _, fig := range []struct {
		name string
		run  func() (ftmc.FMSSweepResult, error)
	}{{"Fig. 1 (FMS, task killing)", ftmc.Fig1}, {"Fig. 2 (FMS, service degradation df = 6)", ftmc.Fig2}} {
		r, err := fig.run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("## %s\n\n", fig.name)
		fmt.Printf("Instance: %v; minimal profiles n_HI=%d n_LO=%d (paper: 3/2).\n\n", r.Set, r.NHI, r.NLO)
		fmt.Println("| n'_HI | UMC | schedulable | log10 pfh(LO) | safe |")
		fmt.Println("|---|---|---|---|---|")
		for _, p := range r.Points {
			fmt.Printf("| %d | %.4f | %v | %.2f | %v |\n", p.NPrime, p.UMC, p.Schedulable, p.Log10PFHLO, p.Safe)
		}
		fmt.Println()
	}
}

func fig3(sets int, seed int64, dist *distFlags) {
	fmt.Println("## Fig. 3 (acceptance ratios)")
	fmt.Println()
	// One shared-workload campaign produces all four panels: each (U, set)
	// pair is drawn once and evaluated against every panel × failure
	// probability, so the curves are paired across configurations (see
	// EXPERIMENTS.md for how this relates to independent per-curve draws).
	cfg := expt.PaperCampaign(sets, seed)
	res, err := dist.run(cfg)
	if err != nil {
		fatal(err)
	}
	for pi, panel := range cfg.Panels {
		pres := res.Panels[pi]
		fmt.Printf("### Panel %s: HI=%v LO=%v mode=%v (%d sets/point)\n\n",
			panel.Name, cfg.HI, panel.LO, panel.Mode, sets)
		fmt.Println("| U | base f=1e-3 | adapt f=1e-3 | base f=1e-5 | adapt f=1e-5 |")
		fmt.Println("|---|---|---|---|---|")
		for ui, u := range cfg.Utils {
			fmt.Printf("| %.2f | %.3f | %.3f | %.3f | %.3f |\n", u,
				pres.Curves[0].Baseline[ui], pres.Curves[0].Adapted[ui],
				pres.Curves[1].Baseline[ui], pres.Curves[1].Adapted[ui])
		}
		fmt.Println()
	}
}

func sensitivity(instances int, seed int64) {
	fmt.Println("## Extension studies")
	fmt.Println()
	r, err := expt.RunFMSRobustness(instances, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("FMS robustness: %v.\n\n", r)
	dfs := []float64{1.5, 2, 3, 4, 6, 8, 12}
	points, err := expt.DFSweep(criticality.LevelB, criticality.LevelD, 0.8, 1e-5, dfs, instances, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Degradation-factor sweep (HI=B LO=D, U=0.8, f=1e-5):")
	fmt.Println()
	fmt.Println("| df | acceptance | 95% CI |")
	fmt.Println("|---|---|---|")
	for _, p := range points {
		fmt.Printf("| %.1f | %.3f | %v |\n", p.DF, p.Acceptance, p.CI)
	}
	fmt.Println()
}

func runtimeValidation() {
	fmt.Println("## Runtime validation (simulator)")
	fmt.Println()
	set := ftmc.FMSAt(gen.DefaultFMSDegradeSeed)
	cfg := ftmc.SafetyConfig{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	res, err := ftmc.AnalyzeEDFVDDegrade(set, cfg, gen.FMSDegradeFactor)
	if err != nil || !res.OK {
		fatal(fmt.Errorf("FMS degrade analysis failed: %v %v", res, err))
	}
	stats, err := ftmc.Simulate(ftmc.SimConfig{
		Set: set, NHI: res.Profiles.NHI, NLO: res.Profiles.NLO, NPrime: res.Profiles.NPrime,
		Mode: safety.Degrade, DF: gen.FMSDegradeFactor, Policy: ftmc.PolicyEDFVD,
		Horizon: ftmc.Hours(1),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("FMS (degradation design) over 1 simulated hour, fault-free: %v; HI misses %d, LO misses %d.\n",
		stats, stats.DeadlineMisses(ftmc.HI), stats.DeadlineMisses(ftmc.LO))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftmc-report:", err)
	os.Exit(1)
}
