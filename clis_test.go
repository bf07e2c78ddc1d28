package ftmc

// Smoke tests for the command-line tools, run via `go run`. Skipped under
// -short.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func writeExampleSet(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	data := `{"tasks":[
		{"name":"τ1","T":"60ms","C":"5ms","level":"B","f":1e-5},
		{"name":"τ2","T":"25ms","C":"4ms","level":"B","f":1e-5},
		{"name":"τ3","T":"40ms","C":"7ms","level":"D","f":1e-5},
		{"name":"τ4","T":"90ms","C":"6ms","level":"D","f":1e-5},
		{"name":"τ5","T":"70ms","C":"8ms","level":"D","f":1e-5}
	]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	path := writeExampleSet(t)
	out := runCLI(t, "./cmd/ftmc-analyze", path)
	if !strings.Contains(out, "SUCCESS under EDF-VD: n_HI=3 n_LO=1 n'_HI=2") {
		t.Errorf("analyze output:\n%s", out)
	}
	cert := runCLI(t, "./cmd/ftmc-analyze", "-cert", path)
	if !strings.Contains(cert, "All obligations discharged") {
		t.Errorf("cert output:\n%s", cert)
	}
}

func TestCLIGenAndExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.json")
	out := runCLI(t, "./cmd/ftmc-gen", "-u", "0.5", "-seed", "3")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	ex := runCLI(t, "./cmd/ftmc-explore", path)
	if !strings.Contains(ex, "recommended:") {
		t.Errorf("explore output:\n%s", ex)
	}
}

func TestCLIFMS(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	out := runCLI(t, "./cmd/ftmc-fms", "-fig", "1")
	if !strings.Contains(out, "n_HI=3 n_LO=2") {
		t.Errorf("fms output:\n%s", out)
	}
}

func TestCLISim(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	path := writeExampleSet(t)
	out := runCLI(t, "./cmd/ftmc-sim", "-horizon", "10s", path)
	if !strings.Contains(out, "empirical failures/hour") {
		t.Errorf("sim output:\n%s", out)
	}
}

// TestCLISimMetrics checks the -metrics appendix end to end: the run
// manifest (with the fault seed stamped) and an instrument snapshot
// covering both the analysis and the simulator.
func TestCLISimMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	path := writeExampleSet(t)
	out := runCLI(t, "./cmd/ftmc-sim", "-horizon", "10s", "-seed", "7", "-metrics", path)
	for _, want := range []string{
		`"manifest"`, `"seed": 7`, `"core.fts.calls": 1`, `"sim.runs": 1`, `"sim.ready_depth"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim -metrics output missing %s:\n%s", want, out)
		}
	}
}

// TestCLIServe is the serving smoke: build the server, start it on an
// ephemeral port, post the same set twice, assert the second answer
// came from the verdict cache (and shows up in the published expvar and
// Prometheus snapshots), and shut down cleanly on SIGTERM.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	serveBin := filepath.Join(t.TempDir(), "ftmc-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "./cmd/ftmc-serve").CombinedOutput(); err != nil {
		t.Fatalf("building ./cmd/ftmc-serve: %v\n%s", err, out)
	}

	srv := exec.Command(serveBin, "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("server printed nothing: %v", sc.Err())
	}
	first := sc.Text()
	const prefix = "ftmc-serve listening on "
	if !strings.HasPrefix(first, prefix) {
		t.Fatalf("unexpected first line %q", first)
	}
	base := "http://" + strings.TrimPrefix(first, prefix)
	go func() { // keep draining so the child never blocks on stdout
		for sc.Scan() {
		}
	}()

	set, err := os.ReadFile(writeExampleSet(t))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"set":` + string(set) + `}`
	var answers [2]map[string]any
	for i := range answers {
		resp, err := http.Post(base+"/v1/verdict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&answers[i])
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d: %v", i+1, resp.StatusCode, answers[i])
		}
	}
	if answers[0]["cached"] != false || answers[1]["cached"] != true {
		t.Errorf("cached = %v then %v, want false then true", answers[0]["cached"], answers[1]["cached"])
	}
	delete(answers[0], "cached")
	delete(answers[1], "cached")
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Errorf("cached answer differs from the analysed one:\n%v\n%v", answers[0], answers[1])
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		FTMC struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"ftmc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars.FTMC.Counters["serve.cache.hits"] == 0 {
		t.Errorf("no cache hits in /metrics: %v", vars.FTMC.Counters)
	}
	if vars.FTMC.Counters["serve.requests"] == 0 {
		t.Errorf("no requests counted in /metrics: %v", vars.FTMC.Counters)
	}

	// The same counters in Prometheus text form on /metrics/prom.
	presp, err := http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE ftmc_serve_cache_hits counter") {
		t.Errorf("/metrics/prom missing serve counters:\n%s", prom)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
	}
}

// TestCLIGenRejectsNaN checks ftmc-gen refuses a NaN failure probability
// up front: exit status 1 and the parameter check's message, not a
// thousand failed draws.
func TestCLIGenRejectsNaN(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	genBin := filepath.Join(t.TempDir(), "ftmc-gen")
	if out, err := exec.Command("go", "build", "-o", genBin, "./cmd/ftmc-gen").CombinedOutput(); err != nil {
		t.Fatalf("building ./cmd/ftmc-gen: %v\n%s", err, out)
	}
	out, err := exec.Command(genBin, "-f", "NaN").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ftmc-gen -f NaN: err %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "failure probability is NaN") {
		t.Errorf("ftmc-gen -f NaN printed:\n%s", out)
	}
}

// TestCLIGenRejectsHugeTarget checks ftmc-gen refuses a finite target
// utilization past the generator's bound at once, with exit status 1. A
// draw toward 1e12 would append tasks until memory runs out, so the
// just-past-the-bound U = 1001 runs first (a tree without the bound
// draws it in a moment and fails here), and a timeout ends the 1e12 run.
func TestCLIGenRejectsHugeTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	genBin := filepath.Join(t.TempDir(), "ftmc-gen")
	if out, err := exec.Command("go", "build", "-o", genBin, "./cmd/ftmc-gen").CombinedOutput(); err != nil {
		t.Fatalf("building ./cmd/ftmc-gen: %v\n%s", err, out)
	}
	for _, u := range []string{"1001", "1e12"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, genBin, "-u", u).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("ftmc-gen -u %s: err %v, want exit status 1\n%.300s", u, err, out)
		}
		if !strings.Contains(string(out), "target utilization must be at most 1000") {
			t.Errorf("ftmc-gen -u %s printed:\n%.300s", u, out)
		}
	}
}
