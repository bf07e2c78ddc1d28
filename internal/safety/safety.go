// Package safety quantifies the probability-of-failure-per-hour (PFH) of
// dual-criticality task sets under transient hardware faults and task
// re-execution, implementing §3 of the paper:
//
//   - Lemma 3.1 (eqs. 1–2): plain PFH per criticality level, no adaptation.
//   - Lemma 3.2 (eq. 3):   bound on the probability that the LO tasks are
//     killed/degraded within [0, t].
//   - Lemma 3.3 (eqs. 4–5): PFH of the LO level when LO tasks can be
//     killed by HI overruns.
//   - Lemma 3.4 (eqs. 6–7): PFH of the LO level when LO tasks are degraded
//     (periods stretched by df) instead of killed.
//
// It also provides the profile searches used by Algorithm 1: the minimal
// re-execution profile per level (line 2) and the minimal adaptation
// profile n¹_HI that keeps the LO level safe (line 4).
//
// A job of task τ_i may execute up to n_i times ("one round"); a round
// fails with probability f_i^{n_i}. A failure in the temporal domain means
// a job that does not finish successfully by its deadline; PFH is the
// average number of such failures per hour over an operation duration of
// OS hours (IEC 61508 / DO-178B definition).
package safety

import (
	"fmt"
	"math"

	"repro/internal/timeunit"
)

// Config carries the analysis-wide parameters.
type Config struct {
	// OperationHours is OS: the continuous operation duration in hours
	// over which PFH is averaged. DO-178B style; commercial aircraft use
	// 1–10 h, the FMS case study uses 10.
	OperationHours int

	// AssumeFullWCET selects the paper's default assumption that each
	// execution attempt takes its full WCET C_i at runtime. Footnote 1:
	// if the assumption is dropped, C_i must be replaced by 0 in
	// eqs. (1), (4) and (6), which makes the round counts (and hence the
	// PFH bounds) strictly larger, i.e. more conservative.
	AssumeFullWCET bool
}

// DefaultConfig matches the paper's experimental setup except for
// OperationHours, which the FMS experiment overrides to 10.
func DefaultConfig() Config {
	return Config{OperationHours: 1, AssumeFullWCET: true}
}

// maxOperationHours is the longest OS whose horizon fits int64
// microseconds (2,562,047,788 h); one hour more wraps Horizon negative.
const maxOperationHours = math.MaxInt64 / int64(timeunit.Hour)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.OperationHours < 1 {
		return fmt.Errorf("safety: operation duration must be >= 1 hour, got %d", c.OperationHours)
	}
	if int64(c.OperationHours) > maxOperationHours {
		return fmt.Errorf("safety: operation duration of %d hours overflows the microsecond horizon (max %d)",
			c.OperationHours, maxOperationHours)
	}
	return nil
}

// Horizon returns OS as a time value.
func (c Config) Horizon() timeunit.Time {
	return timeunit.Hours(int64(c.OperationHours))
}

// effectiveRoundCost returns the n·C term of eqs. (1), (4), (6): n·C_i
// under the full-WCET assumption, 0 otherwise (footnote 1).
func (c Config) effectiveRoundCost(wcet timeunit.Time, n int) timeunit.Time {
	if !c.AssumeFullWCET {
		return 0
	}
	return wcet.MulSafe(n)
}
