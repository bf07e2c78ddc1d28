package gen

import "fmt"

// This file is the repository's partitioned-determinism layer: every
// random draw in an experiment is addressed by a SimulationKey — the
// (seed, panel, point, set) coordinates of the draw in the campaign
// grid — and a Subsystem naming which consumer of randomness is
// drawing. Stream derivation is pure arithmetic on the coordinates, so
//
//   - the stream of one (subsystem, panel, point, set) never depends on
//     how the grid is chunked into worker claims, lease ranges or
//     processes (the property the distributed campaign runner's
//     byte-identity proof rests on), and
//   - adding draws to one subsystem never shifts the sequence another
//     subsystem sees for the same coordinates.
//
// The workload stream reproduces, bit for bit, the legacy splitmix64
// seed chaining the Fig. 3 engines used before this layer existed
// (mix(mix(mix(seed)+g·(panel+1))+g·(point+1))+g·(set+1)), so every
// committed result derived from those seeds is unchanged; the
// equivalence is pinned by TestSimulationKeyMatchesLegacySeeding in
// internal/expt.

// Subsystem names one consumer of randomness under a SimulationKey.
// Streams of distinct subsystems at the same coordinates are isolated:
// drawing more from one does not perturb the others.
type Subsystem uint64

const (
	// SubsystemWorkload is the task-set draw stream (Drawer, TaskSet,
	// UUnifastTaskSet). Its derivation is the legacy seed chain, which
	// keeps every pre-existing experiment output byte-identical.
	SubsystemWorkload Subsystem = iota
	// SubsystemFaults is the fault-process sampling stream (simulator
	// validation runs riding along a campaign).
	SubsystemFaults
	// SubsystemScenario is reserved for the trace/temporal workload
	// engine (arrival jitter, burst phases).
	SubsystemScenario
)

// String names the subsystem for diagnostics.
func (s Subsystem) String() string {
	switch s {
	case SubsystemWorkload:
		return "workload"
	case SubsystemFaults:
		return "faults"
	case SubsystemScenario:
		return "scenario"
	}
	return fmt.Sprintf("subsystem(%d)", uint64(s))
}

// golden64 is 2^64/φ, the splitmix64 increment: coprime to 2^64, so
// k·golden64 walks the full 64-bit ring and adjacent coordinates land
// far apart before mixing.
const golden64 = 0x9E3779B97F4A7C15

// Mix64 is the splitmix64 finalizer: a bijective avalanche mix whose
// outputs are pairwise-decorrelated even for adjacent inputs. It is the
// sole primitive of the key derivation.
func Mix64(x uint64) uint64 {
	x += golden64
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SimulationKey addresses one Monte-Carlo draw in a campaign grid:
// experiment seed, panel (the per-curve failure-probability index;
// campaigns pin it to the canonical 0), utilization-point index, and
// set index within the point. The zero coordinates are valid — key
// fields enter the mix chain offset by one, so (0,0,0) is a regular
// coordinate, not a degenerate one.
type SimulationKey struct {
	// Seed is the experiment seed (CampaignConfig.Seed / Fig3Config.Seed).
	Seed int64 `json:"seed"`
	// Panel is the failure-probability index of per-curve sweeps; the
	// campaign engine pins it to 0 so per-curve and campaign draws pair.
	Panel int `json:"panel"`
	// Point is the index on the utilization axis.
	Point int `json:"point"`
	// Set is the set index within the point.
	Set int `json:"set"`
}

// pointStream chains the seed, panel and point coordinates — the
// legacy pointSeed derivation.
func (k SimulationKey) pointStream() uint64 {
	x := Mix64(uint64(k.Seed))
	x = Mix64(x + golden64*uint64(k.Panel+1))
	return Mix64(x + golden64*uint64(k.Point+1))
}

// Stream derives the RNG seed of one subsystem at these coordinates.
// SubsystemWorkload reproduces the legacy set-seed chain bit for bit;
// other subsystems fold their identity in with one more mix round, so
// their streams are decorrelated from the workload stream and from
// each other at every coordinate (collisions across the whole
// (seed, panel, point, set, subsystem) space are possible only by
// 64-bit accident, not systematically).
func (k SimulationKey) Stream(sub Subsystem) int64 {
	x := Mix64(k.pointStream() + golden64*uint64(k.Set+1))
	if sub != SubsystemWorkload {
		x = Mix64(x ^ golden64*uint64(sub))
	}
	return int64(x)
}
