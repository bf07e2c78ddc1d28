package obsv

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
)

// Manifest records the environment of one analysis run, so a benchmark
// report (perfbench's, or a committed BENCH_*.json) or an experiment
// output is a reproducible artifact rather than a bare number: the same
// binary, worker fan-out and seed re-derive the same result. Field order
// is the JSON key order; it is part of the schema pinned by the
// golden-file test.
type Manifest struct {
	// Schema is SchemaVersion (see its doc for the bump policy).
	Schema int `json:"schema"`
	// GoVersion, GOOS and GOARCH identify the toolchain and target.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS bound the available parallelism.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// FTMCWorkers is the raw FTMC_WORKERS environment variable (empty
	// when unset) and Workers the fan-out it resolves to — the same
	// resolution as expt.Workers: a positive integer pins the width,
	// anything else falls back to NumCPU.
	FTMCWorkers string `json:"ftmc_workers,omitempty"`
	Workers     int    `json:"workers"`
	// Seed is the experiment seed, when the producing run had one.
	Seed int64 `json:"seed,omitempty"`
	// GitRev and GitDirty come from the build info VCS stamp; empty
	// under `go run` or test binaries, which are not stamped.
	GitRev   string `json:"git_rev,omitempty"`
	GitDirty bool   `json:"git_dirty,omitempty"`
}

// buildVCS memoizes the build-info VCS stamp: debug.ReadBuildInfo
// re-parses the embedded module data on every call, which showed up
// as per-handshake cost once the distributed coordinator started
// building one manifest per worker connection. The stamp is a
// property of the binary, so reading it once is exact.
var buildVCS = sync.OnceValues(func() (rev string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return
})

// NewManifest captures the current process environment. Callers set
// Seed themselves when the run is seeded. Only the per-binary VCS
// stamp is cached; environment-dependent fields (FTMC_WORKERS,
// GOMAXPROCS) are read live on every call.
func NewManifest() Manifest {
	m := Manifest{
		Schema:      SchemaVersion,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		FTMCWorkers: os.Getenv("FTMC_WORKERS"),
		Workers:     runtime.NumCPU(),
	}
	if n, err := strconv.Atoi(m.FTMCWorkers); err == nil && n > 0 {
		m.Workers = n
	}
	m.GitRev, m.GitDirty = buildVCS()
	return m
}

// Report is the JSON document the CLIs' -metrics flags append to
// their output: the run manifest next to a snapshot of every
// instrument the run exercised.
type Report struct {
	Manifest Manifest `json:"manifest"`
	Metrics  Snapshot `json:"metrics"`
}

// DefaultReport builds a Report from the default registry (empty
// metrics when disabled) with the given seed stamped.
func DefaultReport(seed int64) Report {
	m := NewManifest()
	m.Seed = seed
	return Report{Manifest: m, Metrics: Default().Snapshot()}
}
