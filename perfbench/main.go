// Command perfbench is the repository benchmark: it times the two
// user-facing paths of the reproduction end to end — a verdict
// (Algorithm 1 on one task set, served over HTTP by internal/serve) and
// the Appendix C acceptance-ratio figure (Fig. 3, through
// internal/expt) — and, in a separate traced run, splits them by layer.
//
// Usage (from the repository root, see run.sh and README.md):
//
//	perfbench --workload verdict-cold --seed 1 --seconds 10 --trace 0
//
// Everything runs in this one process: the HTTP server listens on a
// loopback port, the load generator and the distributed workers are
// goroutines. Every exit path — success, failed check, error, signal,
// deadline — shuts them down and waits for them before returning.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The lines
// before it are the human-readable report, including the run manifest.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obsv"
)

// runDeadline bounds one invocation: the run is cancelled (and cleaned
// up) well before the 180 s a run may take.
const runDeadline = 170 * time.Second

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: verdict-cold, verdict-hot, campaign or campaign-dist")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are generated from it)")
	fs.IntVar(&o.seconds, "seconds", 10, "length of one timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// checks lists every answer check that failed; empty means correct.
	checks []string
	// e2e holds the end-to-end metrics of the untraced window, layers
	// the per-layer metrics (traced runs only).
	e2e    map[string]float64
	layers map[string]float64
	// report is the human-readable detail printed before the result.
	report map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// workload runs one named workload; small shrinks it for tests.
type workload func(ctx context.Context, o options, small bool) (*outcome, error)

var workloads = map[string]workload{
	"verdict-cold":  runVerdictCold,
	"verdict-hot":   runVerdictHot,
	"campaign":      runCampaign,
	"campaign-dist": runCampaignDist,
}

// metricSpec names one metric of BENCHMARK.json with its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the end-to-end metrics every workload reports. The
// names are shared by all workloads; README.md maps each to the
// quantity it is on each workload (verdict_p50_ms and the figure median
// for latency_p50_ms, and so on). Tail latencies and the verdict
// staircase's max rate are in the report but not here: on a shared
// 2-CPU host they spread beyond any allowed bound (README.md,
// "Steadiness").
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. Layers a workload's own path
// does not cross are measured on probes (probeLayers).
var perLayer = []metricSpec{
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"http.transport_p50_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"task.decode_p50_us", "us"},
	{"task.hash_p50_us", "us"},
	{"safety.line2_p50_us", "us"},
	{"core.fts_safety_p50_us", "us"},
	{"core.fts_sched_p50_us", "us"},
	{"core.fts_p50_us", "us"},
	{"core.fts_p99_us", "us"},
	{"serve.unattributed_p50_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.analyses_per_new_key", "ratio"},
	{"serve.batch_width_mean", "count"},
	{"serve.shed_ratio", "ratio"},
	{"safety.shards_hit_ratio", "ratio"},
	{"core.line8_probes_per_fts", "count"},
	{"safety.minadapt_probes_per_fts", "count"},
	{"gen.draw_us_per_set", "us"},
	{"safety.min_reexec_us_per_set", "us"},
	{"core.max_sched_us_per_search", "us"},
	{"safety.kill_batch_us_per_job", "us"},
	{"safety.kill_scalar_us_per_job", "us"},
	{"safety.degrade_us_per_probe", "us"},
	{"expt.campaign_unattributed_share", "ratio"},
	{"expt.scaling_2", "ratio"},
	{"expt.pool_steals_per_point", "count"},
	{"expt.campaign_baseline_ratio", "ratio"},
	{"expt.campaign_memo_ratio", "ratio"},
	{"expt.dist_overhead", "ratio"},
	{"expt.dist_bytes_per_lease", "B"},
	{"expt.dist_lease_p50_ms", "ms"},
	{"expt.dist_lease_p99_ms", "ms"},
	{"expt.dist_reassigned", "count"},
	{"expt.dist_worker_failures", "count"},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line: every metric of the run's kind,
// in BENCHMARK.json's names and units.
func summarize(o options, out *outcome) result {
	specs, vals := endToEnd, out.e2e
	if o.trace {
		specs, vals = perLayer, out.layers
	}
	r := result{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		r.Metrics[s.name] = metricValue{Value: vals[s.name], Unit: s.unit}
	}
	return r
}

// runWorkload runs the named workload; a traced run then measures the
// layers its own path does not cross on probes (probeLayers).
func runWorkload(ctx context.Context, o options, small bool) (*outcome, error) {
	out, err := workloads[o.workload](ctx, o, small)
	if err != nil || !o.trace {
		return out, err
	}
	return out, probeLayers(ctx, o.seed, small, out)
}

// probeLayers measures the per-layer metrics a traced run's own path
// leaves out, so that every traced run reports every layer as measured:
// a 3 s verdict-cold run for the serve, task and analysis layers of a
// verdict, and 1 s runs of 50-set figures through expt.Campaign and
// expt.DistCampaign for the campaign stages and the distributed plane.
// The probes use the run's seed, their operations and answer checks
// count with the run's, and their reports go under "probes".
func probeLayers(ctx context.Context, seed int64, small bool, out *outcome) error {
	probes := []struct {
		measures string // one of the metrics the probe measures
		run      func() (*outcome, error)
	}{
		{"serve.handler_p50_us", func() (*outcome, error) {
			return runVerdict(ctx, options{seed: seed, seconds: 3, trace: true}, planVerdict(false, 3, small))
		}},
		{"gen.draw_us_per_set", func() (*outcome, error) {
			return runCampaigns(ctx, options{seed: seed, seconds: 1, trace: true}, probeCampaignPlan(false, small))
		}},
		{"expt.dist_bytes_per_lease", func() (*outcome, error) {
			return runCampaigns(ctx, options{seed: seed, seconds: 1, trace: true}, probeCampaignPlan(true, small))
		}},
	}
	reports := make(map[string]any)
	for _, pr := range probes {
		if _, ok := out.layers[pr.measures]; ok {
			continue
		}
		po, err := pr.run()
		if err != nil {
			return fmt.Errorf("probing %s: %w", pr.measures, err)
		}
		out.attempted += po.attempted
		out.failed += po.failed
		out.checks = append(out.checks, po.checks...)
		reports[pr.measures] = po.report
		for name, v := range po.layers {
			if _, ok := out.layers[name]; !ok {
				out.layers[name] = v
			}
		}
	}
	out.report["probes"] = reports
	return nil
}

// render builds the human-readable report (with the run manifest) and
// the result line of a finished run.
func render(o options, out *outcome) ([]byte, result, error) {
	man := obsv.NewManifest()
	man.Seed = o.seed
	report, err := json.MarshalIndent(map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"manifest": man,
		"checks":   out.checks,
		"detail":   out.report,
	}, "", "  ")
	return report, summarize(o, out), err
}

// settle waits until the goroutine count is back to base: every
// goroutine the run started (server, connections, senders, workers)
// has returned. It reports the stragglers when they outlive timeout.
func settle(base int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines outlived the run (baseline %d):\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	out, err := runWorkload(ctx, o, false)
	if err == nil {
		err = ctx.Err() // a cancelled run prints no result
	}
	cancel()
	if serr := settle(base, 10*time.Second); serr != nil {
		err = errors.Join(err, serr)
	}
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	report, res, err := render(o, out)
	if err == nil {
		line, merr := json.Marshal(res)
		err = merr
		if err == nil {
			_, err = fmt.Printf("%s\n%s\n", report, line)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d answer checks failed\n", len(out.checks))
		os.Exit(1)
	}
}
