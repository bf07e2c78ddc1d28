package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/safety"
)

// killCounters routes the package views at a fresh registry for the
// test and returns a reader of the two eq. (5) interval counters.
func killCounters(t *testing.T) func() (settled, fallbacks uint64, snap obsv.Snapshot) {
	t.Helper()
	r := obsv.NewRegistry()
	obsv.SetDefault(r)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	return func() (uint64, uint64, obsv.Snapshot) {
		snap := r.Snapshot()
		return snap.Counters["safety.kill.interval_settled"], snap.Counters["safety.kill.interval_fallbacks"], snap
	}
}

// TestKillIntervalSettlesVerdictCorpus runs a cold core.FTS — a fresh
// adaptation cache per set, as /v1/verdict does — over a fixed corpus
// shaped like the verdict-cold workload: 300 Appendix C sets across
// PaperUtils, HI = B, LO = C, f = 1e-5, kill. The certified interval must
// settle every line-4 probe, so the exact eq. (5) sweep runs only for the
// pfh(LO) each SUCCESS verdict reports.
func TestKillIntervalSettlesVerdictCorpus(t *testing.T) {
	read := killCounters(t)
	utils := PaperUtils()
	const sets = 300
	opt := core.Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	for k := 0; k < sets; k++ {
		ui := k % len(utils)
		d, err := gen.NewDrawer(gen.PaperParams(criticality.LevelB, criticality.LevelC, utils[ui], 1e-5), 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.DrawKeyed(gen.SimulationKey{Seed: 20261016, Point: ui, Set: k})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.FTS(s, opt); err != nil {
			t.Fatal(err)
		}
	}
	settled, fallbacks, snap := read()
	probes := snap.Counters["safety.minadapt.probes"]
	t.Logf("%d line-4 probes: %d settled, %d fallbacks; %d of %d verdicts SUCCESS",
		probes, settled, fallbacks, snap.Counters["core.fts.success"], snap.Counters["core.fts.calls"])
	if fallbacks != 0 {
		t.Errorf("%d of %d kill probes fell back to the exact sweep, want 0", fallbacks, settled+fallbacks)
	}
	if settled == 0 || settled != probes {
		t.Errorf("settled %d kill probes, want every one of the %d line-4 probes", settled, probes)
	}
}

// TestKillIntervalSettlesPaperCampaign counts the campaign's verdict
// probes on the published figure: at most 1% may fall back to the exact
// sweep.
func TestKillIntervalSettlesPaperCampaign(t *testing.T) {
	read := killCounters(t)
	if _, err := Campaign(PaperCampaign(500, 1)); err != nil {
		t.Fatal(err)
	}
	settled, fallbacks, _ := read()
	t.Logf("PaperCampaign(500, 1): %d kill probes settled, %d fallbacks", settled, fallbacks)
	if settled == 0 || 100*fallbacks > settled+fallbacks {
		t.Errorf("%d of %d kill probes fell back to the exact sweep, want at most 1%%", fallbacks, settled+fallbacks)
	}
}
