package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obsv"
)

// listeningSockets returns how many TCP sockets of this process are in
// the LISTEN state, from /proc (Linux only).
func listeningSockets(t *testing.T) int {
	t.Helper()
	listen := make(map[string]bool)
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			if fs := strings.Fields(line); len(fs) > 9 && fs[3] == "0A" {
				listen[fs[9]] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if inode, ok := strings.CutPrefix(target, "socket:["); err == nil && ok && listen[strings.TrimSuffix(inode, "]")] {
			n++
		}
	}
	return n
}

// runTiny runs one workload at its test size and asserts that it leaves
// no listening socket and no goroutine behind.
func runTiny(t *testing.T, ctx context.Context, name string, trace bool) (*outcome, error) {
	t.Helper()
	base := runtime.NumGoroutine()
	sockets := listeningSockets(t)
	out, err := runWorkload(ctx, options{workload: name, seed: 3, seconds: 1, trace: trace}, true)
	if serr := settle(base, 10*time.Second); serr != nil {
		t.Errorf("%s: %v", name, serr)
	}
	if n := listeningSockets(t); n != sockets {
		t.Errorf("%s: %d listening sockets after the run, %d before", name, n, sockets)
	}
	return out, err
}

// TestWorkloadsLeaveNothingRunning runs every workload, untraced and
// traced, at a tiny size: each must pass its answer checks, report every
// metric of its kind, and leave no listener or goroutine behind. A run
// whose checks fail takes the same return path as a passing one.
func TestWorkloadsLeaveNothingRunning(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := runTiny(t, context.Background(), name, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.checks) > 0 || out.failed > 0 || out.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, checks %q", name, trace, out.attempted, out.failed, out.checks)
			}
			res := summarize(options{trace: trace}, out)
			for _, m := range endToEnd {
				if v := out.e2e[m.name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v)
				}
			}
			if want := len(endToEnd); !trace && len(res.Metrics) != want {
				t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), want)
			}
			if want := len(perLayer); trace && len(res.Metrics) != want {
				t.Errorf("%s: %d traced metrics, want %d", name, len(res.Metrics), want)
			}
			for _, m := range perLayer {
				if _, ok := out.layers[m.name]; trace && !ok {
					t.Errorf("%s: per-layer metric %s was not measured", name, m.name)
				}
			}
		}
	}
	if obsv.Default() != nil {
		t.Error("a run left the obsv default registry installed")
	}
}

// TestCancelledRunsLeaveNothingRunning cancels each workload mid-window,
// as SIGINT or SIGTERM does through the run's context.
func TestCancelledRunsLeaveNothingRunning(t *testing.T) {
	for name := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		_, err := runTiny(t, ctx, name, false)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: cancelled run: %v", name, err)
		}
	}
}

// TestMainExitsOnSignal runs the real main in a child process, sends it
// SIGTERM mid-run, and expects a non-zero exit with no result line.
func TestMainExitsOnSignal(t *testing.T) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("PERFBENCH_ARGS"))...)
		main()
		return
	}
	if testing.Short() {
		t.Skip("starts a child process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitsOnSignal$")
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1", "PERFBENCH_ARGS=--workload verdict-cold --seed 1 --seconds 30 --trace 0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	err = cmd.Wait()
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("exit took %v after SIGTERM", took)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Errorf("exit after SIGTERM: %v, want a non-zero status", err)
	}
	for _, l := range lines {
		if strings.Contains(l, `"correct"`) {
			t.Errorf("a result was printed after SIGTERM: %s", l)
		}
	}
}

// TestOpenLoopChargesStall drives the generator against a local handler
// that stalls once for 60 ms while holding the lock every request
// takes: the arrivals due during the stall are sent late, none is
// dropped, and each is timed from its due time, so the stall is charged
// to every request queued behind it.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		n       = 80
		every   = 2 * time.Millisecond
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Header.Get(seqHeader) == fmt.Sprint(stallAt) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	send := func(ctx context.Context, i int, body []byte) (int, []byte) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader(string(body)))
		if err != nil {
			return 0, nil
		}
		req.Header.Set(seqHeader, fmt.Sprint(i))
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte("{}")
	}
	shots := openLoop(context.Background(), schedule(bodies, float64(time.Second/every)), 2, send)

	stallEnd := shots[stallAt].sent + stall
	behind := 0
	for i, s := range shots {
		if s.status != http.StatusOK {
			t.Fatalf("arrival %d: status %d, want every arrival sent and answered", i, s.status)
		}
		if i <= stallAt+1 || s.due >= stallEnd-5*time.Millisecond {
			continue
		}
		// Due during the stall: queued behind it, timed from its due time.
		behind++
		if want := stallEnd - s.due - 2*time.Millisecond; s.latency() < want {
			t.Errorf("arrival %d (due %v): latency %v, want at least %v", i, s.due, s.latency(), want)
		}
		if s.sent-s.due < time.Millisecond && s.done < stallEnd {
			t.Errorf("arrival %d was answered before the stall ended", i)
		}
	}
	if behind < 15 {
		t.Fatalf("only %d arrivals were due during the stall", behind)
	}
}

// TestClosedLoopStopsClaiming runs the closed loop against a local
// handler: the senders keep requests back to back, stop claiming new
// ones once the phase's time is up, and leave the rest unsent.
func TestClosedLoopStopsClaiming(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	send := func(ctx context.Context, i int, body []byte) (int, []byte) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader(string(body)))
		if err != nil {
			return 0, nil
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	bodies := make([][]byte, 10000)
	for i := range bodies {
		bodies[i] = []byte("{}")
	}
	const d = 50 * time.Millisecond
	shots := closedLoop(context.Background(), bodies, 2, d, send)
	sent := 0
	for i, s := range shots {
		if s.status < 0 {
			continue
		}
		if s.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, s.status)
		}
		if s.sent > d {
			t.Errorf("request %d was sent at %v, after the phase's %v", i, s.sent, d)
		}
		sent++
	}
	if sent < 10 || sent == len(bodies) {
		t.Errorf("%d of %d bodies sent in %v at about 1 ms each on 2 senders", sent, len(bodies), d)
	}
}

// TestMaxRateSettles checks the staircase estimate: the median passing
// rate after the first failing step, else the highest pass, else the
// fixed-rate phase's rate.
func TestMaxRateSettles(t *testing.T) {
	step := func(rate float64, pass bool) phaseStats { return phaseStats{Achieved: rate, Pass: pass} }
	fixed := phaseStats{Achieved: 125}
	for _, c := range []struct {
		steps []phaseStats
		want  float64
	}{
		{[]phaseStats{step(400, true), step(420, false), step(400, true), step(420, true), step(441, false), step(420, true)}, 420},
		{[]phaseStats{step(400, true), step(420, true), step(441, true)}, 441},
		{[]phaseStats{step(400, false), step(380, false)}, 125},
		{nil, 125},
	} {
		if got := maxRate(c.steps, fixed); got != c.want {
			t.Errorf("maxRate(%v) = %v, want %v", c.steps, got, c.want)
		}
	}
}

// TestSaturationRates checks throughput_per_s on the verdict workloads:
// answered requests per second of the phase's process CPU time, beside
// the wall-time rate; refused and unsent requests are not answers.
func TestSaturationRates(t *testing.T) {
	ph := &phase{closed: time.Second, cpu: 2 * time.Second}
	for i := 1; i <= 10; i++ {
		ph.shots = append(ph.shots, shot{status: http.StatusOK, done: time.Duration(i) * 100 * time.Millisecond})
	}
	ph.shots = append(ph.shots, shot{status: http.StatusServiceUnavailable, done: 50 * time.Millisecond}, shot{status: 0}, shot{status: -1})
	st := ph.satStats()
	if st.Sent != 12 || st.Failed != 2 || st.Throughput != 10 || st.PerCPUS != 5 {
		t.Errorf("sent %d, failed %d, %v/s, %v per CPU second; want 12, 2, 10/s, 5", st.Sent, st.Failed, st.Throughput, st.PerCPUS)
	}
}

// TestBenchmarkJSONMatches keeps the program's metrics in step with
// BENCHMARK.json, and every workload it lists runnable (the program
// also runs verdict-hot, which BENCHMARK.json leaves out; README.md).
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(cfg.Workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		prog []metricSpec
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestHistQuantileInterpolates checks the log2-bucket interpolation on
// observations whose quantiles are known.
func TestHistQuantileInterpolates(t *testing.T) {
	reg := obsv.NewRegistry()
	h := reg.Histogram("x.lease_ns")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket (511, 1023]
	}
	h.Observe(1 << 20)
	p50, err := histQuantile(reg, "x.lease_ns", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= 511 || p50 > 1023 {
		t.Errorf("p50 = %v, want inside the bucket (511, 1023]", p50)
	}
	if empty, err := histQuantile(reg, "x.none", 0.5); err != nil || empty != 0 {
		t.Errorf("empty histogram: %v, %v", empty, err)
	}
}
