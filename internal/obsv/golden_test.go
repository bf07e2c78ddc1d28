package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden compares got against testdata/<name>, rewriting it under
// -update. The golden files pin the metrics/manifest JSON schema —
// key names, key order, schema stamp — so report consumers (perfbench's
// report, the committed BENCH_*.json history, downstream parsers) break
// loudly in review rather than silently at read time.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obsv -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n got:\n%s\nwant:\n%s\nIf the schema change is intentional, bump SchemaVersion and re-run with -update.", name, got, want)
	}
}

// deterministicRegistry fills a registry with fixed values covering
// every instrument kind, including an empty histogram (min sentinel
// handling) and multi-bucket observations (quantile estimation).
func deterministicRegistry() *Registry {
	r := NewRegistry()
	r.Counter("core.fts.calls").Add(120)
	r.Counter("core.line8.probes").Add(431)
	r.Counter("safety.cache.hits").Add(97)
	r.Counter("safety.cache.misses").Add(23)
	r.Gauge("expt.pool.active_workers").Set(4)
	h := r.Histogram("expt.fig3.point_ns")
	for _, v := range []int64{0, 1, 3, 5, 900, 1500, 1 << 20} {
		h.Observe(v)
	}
	r.Histogram("sim.ready_depth") // registered but never observed
	return r
}

// TestSnapshotGolden pins the metrics section's JSON shape.
func TestSnapshotGolden(t *testing.T) {
	data, err := json.MarshalIndent(deterministicRegistry().Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.golden.json", append(data, '\n'))
}

// TestManifestGolden pins the manifest's JSON shape on a fully
// populated fixed value (NewManifest output varies per host, so the
// golden uses a literal).
func TestManifestGolden(t *testing.T) {
	m := Manifest{
		Schema:      SchemaVersion,
		GoVersion:   "go1.22.0",
		GOOS:        "linux",
		GOARCH:      "amd64",
		NumCPU:      8,
		GOMAXPROCS:  8,
		FTMCWorkers: "4",
		Workers:     4,
		Seed:        1,
		GitRev:      "0123456789abcdef0123456789abcdef01234567",
		GitDirty:    true,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "manifest.golden.json", append(data, '\n'))
}

// TestReportGolden pins the combined -metrics document (manifest +
// snapshot) the CLIs emit, again on fixed values.
func TestReportGolden(t *testing.T) {
	rep := Report{
		Manifest: Manifest{Schema: SchemaVersion, GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2, Workers: 2, Seed: 7},
		Metrics:  deterministicRegistry().Snapshot(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "report.golden.json", append(data, '\n'))
}
