package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/expt"
)

// DistributedCampaignSection reports the lease-sharded campaign runner
// (expt.DistCampaign) against the single-process engine on the same
// fixed-seed figure. All runs pin FTMC_WORKERS=1 so each in-process
// protocol worker is single-threaded — the scaling from 1 to 2 to 4
// workers then models separate single-threaded processes, isolating
// what the protocol (framing, leasing, merge) costs and buys. Rates
// are evaluated task sets per second; every variant produces the same
// bytes (the dist tests' invariant), so the comparison is pure
// throughput.
type DistributedCampaignSection struct {
	// SetsPerRun is the number of (U, set) draws one benchmark op
	// evaluates (each against the full panel × f cross-product).
	SetsPerRun int `json:"sets_per_run"`
	// SingleSetsPerSec is the in-process expt.Campaign baseline
	// (Fig3CampaignFigure); DistNSetsPerSec shard the same figure
	// across N protocol workers.
	SingleSetsPerSec float64 `json:"single_sets_per_sec"`
	Dist1SetsPerSec  float64 `json:"dist1_sets_per_sec"`
	Dist2SetsPerSec  float64 `json:"dist2_sets_per_sec"`
	Dist4SetsPerSec  float64 `json:"dist4_sets_per_sec"`
	// ProtocolOverhead is single/dist1 ns-per-op: what one worker loses
	// to the wire versus calling Campaign directly.
	ProtocolOverhead float64 `json:"protocol_overhead"`
	// Speedup2 and Speedup4 are dist2/dist1 and dist4/dist1 — the
	// scale-out factor over the 1-worker distributed baseline.
	Speedup2 float64 `json:"speedup_2"`
	Speedup4 float64 `json:"speedup_4"`
	// Wire is the frame codec's traffic per lease on the same figure.
	Wire *DistWireSection `json:"wire,omitempty"`
}

// DistWireSection is the wire-level cost of a lease: marginal bytes
// per lease, measured by differencing the total coordinator traffic of
// a 1-set-per-lease run against a whole-point-per-lease run — the
// handshake (per run) and the verdict payload (per set) cancel,
// leaving exactly the per-lease framing the codec controls.
type DistWireSection struct {
	BinaryBytesPerLease float64 `json:"binary_bytes_per_lease"`
}

// maxWireBytesPerLease is the wire gate: a lease round-trip (lease
// frame plus result frame) may cost at most this many bytes.
const maxWireBytesPerLease = 16

// distCampaignBench shards the campaignBenchConfig figure across procs
// in-process protocol workers (net.Pipe transports, the full wire
// protocol) under FTMC_WORKERS=1.
func distCampaignBench(procs int) func(*testing.B) {
	return singleWorker(func(b *testing.B) {
		ccfg := campaignBenchConfig()
		for i := 0; i < b.N; i++ {
			if _, _, err := expt.DistCampaign(ccfg, expt.PipeWorkers(procs), expt.DistOptions{LeaseSets: 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// distCampaignSection derives the report section from the measured
// benchmarks; nil until all four ran.
func distCampaignSection(single, d1, d2, d4 BenchResult) *DistributedCampaignSection {
	if single.NsPerOp <= 0 || d1.NsPerOp <= 0 || d2.NsPerOp <= 0 || d4.NsPerOp <= 0 {
		return nil
	}
	ccfg := campaignBenchConfig()
	sets := len(ccfg.Utils) * ccfg.SetsPerPoint
	rate := func(ns float64) float64 { return float64(sets) * 1e9 / ns }
	return &DistributedCampaignSection{
		SetsPerRun:       sets,
		SingleSetsPerSec: rate(single.NsPerOp),
		Dist1SetsPerSec:  rate(d1.NsPerOp),
		Dist2SetsPerSec:  rate(d2.NsPerOp),
		Dist4SetsPerSec:  rate(d4.NsPerOp),
		ProtocolOverhead: d1.NsPerOp / single.NsPerOp,
		Speedup2:         d1.NsPerOp / d2.NsPerOp,
		Speedup4:         d1.NsPerOp / d4.NsPerOp,
		Wire:             distWireSection(),
	}
}

// distWireMarginal measures the marginal bytes per lease on the
// benchmark figure: total coordinator traffic at 1 set per lease minus
// traffic at one whole point per lease, over the lease-count
// difference. Byte counts are exact (every run is deterministic), so
// this needs one run per lease size, not a benchmark loop.
func distWireMarginal() (float64, error) {
	ccfg := campaignBenchConfig()
	run := func(leaseSets int) (float64, int, error) {
		_, rep, err := expt.DistCampaign(ccfg, expt.PipeWorkers(1), expt.DistOptions{LeaseSets: leaseSets})
		if err != nil {
			return 0, 0, err
		}
		return float64(rep.BytesOut + rep.BytesIn), rep.Leases, nil
	}
	bFine, lFine, err := run(1)
	if err != nil {
		return 0, err
	}
	bCoarse, lCoarse, err := run(ccfg.SetsPerPoint)
	if err != nil {
		return 0, err
	}
	if lFine <= lCoarse {
		return 0, fmt.Errorf("lease counts %d and %d cannot isolate framing", lFine, lCoarse)
	}
	return (bFine - bCoarse) / float64(lFine-lCoarse), nil
}

// distWireSection measures the marginal lease cost; nil if the
// measurement fails (the gate then has nothing to check, and the
// campaign benchmarks' own errors surface the cause).
func distWireSection() *DistWireSection {
	binPer, err := distWireMarginal()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: wire section: %v\n", err)
		return nil
	}
	return &DistWireSection{BinaryBytesPerLease: binPer}
}
