package expt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// journalLines splits a journal file into its newline-terminated lines
// (header first).
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// TestDistCampaignCheckpointResume is the restart contract end to end:
// a completed journal replays the whole campaign without granting a
// single lease; a journal cut mid-run (as a dead coordinator leaves
// it, torn tail included) replays its prefix and re-runs only the
// rest; the merged bytes are identical in every case.
func TestDistCampaignCheckpointResume(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")

	got, rep, err := DistCampaign(cfg, PipeWorkers(2), DistOptions{LeaseSets: 5, Checkpoint: full})
	if err != nil {
		t.Fatal(err)
	}
	if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
		t.Fatal("checkpointed run diverged from single-process bytes")
	}
	if rep.ReplayedSets != 0 {
		t.Fatalf("fresh run replayed %d sets", rep.ReplayedSets)
	}

	// Restart over the complete journal: everything replays, nothing runs.
	total := len(cfg.Utils) * cfg.SetsPerPoint
	got, rep, err = DistCampaign(cfg, PipeWorkers(2), DistOptions{LeaseSets: 5, Checkpoint: full})
	if err != nil {
		t.Fatal(err)
	}
	if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
		t.Fatal("full replay diverged from single-process bytes")
	}
	if rep.ReplayedSets != total || rep.Leases != 0 {
		t.Fatalf("full replay: %d sets replayed, %d leases granted; want %d and 0", rep.ReplayedSets, rep.Leases, total)
	}

	// Restart over a prefix — what a coordinator killed mid-run leaves
	// behind — plus a torn final line, the signature of dying inside an
	// append. The torn tail must be dropped and its lease re-run.
	lines := journalLines(t, full)
	partial := filepath.Join(dir, "partial.ckpt")
	cut := 1 + (len(lines)-1)/2
	var pb []byte
	for _, l := range lines[:cut] {
		pb = append(pb, l...)
	}
	pb = append(pb, []byte(`{"ui":0,"lo":`)...) // torn tail, no newline
	if err := os.WriteFile(partial, pb, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, err = DistCampaign(cfg, PipeWorkers(2), DistOptions{LeaseSets: 5, Checkpoint: partial})
	if err != nil {
		t.Fatal(err)
	}
	if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
		t.Fatal("partial replay diverged from single-process bytes")
	}
	if rep.ReplayedSets == 0 || rep.ReplayedSets >= total || rep.Leases == 0 {
		t.Fatalf("partial replay: %d sets replayed, %d leases granted; want both in between", rep.ReplayedSets, rep.Leases)
	}
	// And the journal the resumed run left behind must itself replay
	// the whole campaign: the torn tail was truncated, the gaps filled.
	_, rep, err = DistCampaign(cfg, PipeWorkers(1), DistOptions{LeaseSets: 5, Checkpoint: partial})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedSets != total || rep.Leases != 0 {
		t.Fatalf("healed journal: %d sets replayed, %d leases granted; want %d and 0", rep.ReplayedSets, rep.Leases, total)
	}
}

// TestDistCampaignCheckpointRejects pins the journal's guard rails: a
// journal from a different campaign configuration and corruption
// anywhere but the final line are hard errors, not silent re-runs.
func TestDistCampaignCheckpointRejects(t *testing.T) {
	cfg := smallCampaign()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, _, err := DistCampaign(cfg, PipeWorkers(1), DistOptions{LeaseSets: 5, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed++
	if _, _, err := DistCampaign(other, PipeWorkers(1), DistOptions{LeaseSets: 5, Checkpoint: path}); err == nil {
		t.Fatal("journal of a different campaign was accepted")
	}

	lines := journalLines(t, path)
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	var cb []byte
	for i, l := range lines {
		if i == 2 {
			cb = append(cb, []byte("not json\n")...)
		}
		cb = append(cb, l...)
	}
	if err := os.WriteFile(corrupt, cb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DistCampaign(cfg, PipeWorkers(1), DistOptions{LeaseSets: 5, Checkpoint: corrupt}); err == nil {
		t.Fatal("mid-file corruption was accepted")
	}

	outside := filepath.Join(dir, "outside.ckpt")
	ob := append([]byte{}, lines[0]...)
	ob = append(ob, []byte(`{"ui":999,"lo":0,"hi":1,"v":[0]}`+"\n")...)
	if err := os.WriteFile(outside, ob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DistCampaign(cfg, PipeWorkers(1), DistOptions{LeaseSets: 5, Checkpoint: outside}); err == nil {
		t.Fatal("record outside the campaign grid was accepted")
	}
}

// TestRemainingWork pins the replay set-arithmetic, overlaps included
// (two coordinator generations can journal the same lease).
func TestRemainingWork(t *testing.T) {
	cfg := CampaignConfig{Utils: []float64{0.5, 0.6}, SetsPerPoint: 10}
	records := []ckptRecord{
		{UI: 0, Lo: 2, Hi: 5},
		{UI: 0, Lo: 4, Hi: 7}, // overlaps the previous record
		{UI: 1, Lo: 0, Hi: 10},
	}
	fresh, replayed := remainingWork(&cfg, records)
	if replayed != 5+10 {
		t.Fatalf("replayed %d sets, want 15", replayed)
	}
	want := []spanWork{{ui: 0, lo: 0, hi: 2}, {ui: 0, lo: 7, hi: 10}}
	if len(fresh) != len(want) {
		t.Fatalf("fresh spans %+v, want %+v", fresh, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh[%d] = %+v, want %+v", i, fresh[i], want[i])
		}
	}
}

// FuzzDistJournal feeds arbitrary bytes to the checkpoint-journal
// reader and the replay arithmetic behind it. Loading must never
// panic; a journal it accepts must hold only records inside the grid,
// report an offset that ends one of the input's lines, and leave fresh
// spans that are sorted, disjoint and, with the replayed sets, cover
// the grid exactly.
func FuzzDistJournal(f *testing.F) {
	// A tiny grid keeps the seed journals short, and with them the
	// minimization of every input that finds new coverage.
	cfg := smallCampaign()
	cfg.Utils = cfg.Utils[:2]
	cfg.SetsPerPoint = 6
	cfgJSON, err := json.Marshal(&cfg)
	if err != nil {
		f.Fatal(err)
	}
	want := journalHeader(cfgJSON, &cfg, len(cfg.Panels)*len(cfg.FailProbs))

	path := filepath.Join(f.TempDir(), "run.ckpt")
	if _, _, err := DistCampaign(cfg, PipeWorkers(2), DistOptions{LeaseSets: 2, Checkpoint: path}); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	f.Add(journal)
	f.Add(append(bytes.Clone(journal), `{"ui":0,"lo":`...)) // torn tail
	corrupt := bytes.Join([][]byte{lines[0], lines[1], []byte("not json\n"), lines[2]}, nil)
	f.Add(corrupt)

	total := len(cfg.Utils) * cfg.SetsPerPoint
	f.Fuzz(func(t *testing.T, data []byte) {
		records, off, err := loadDistJournal(bytes.NewReader(data), "fuzz", want, &cfg)
		if err != nil {
			return
		}
		if off < 0 || off > int64(len(data)) || (off > 0 && data[off-1] != '\n') {
			t.Fatalf("offset %d does not end a line of the %d-byte input", off, len(data))
		}
		for _, r := range records {
			if r.UI < 0 || r.UI >= len(cfg.Utils) || r.Lo < 0 || r.Lo >= r.Hi ||
				r.Hi > cfg.SetsPerPoint || len(r.V) != r.Hi-r.Lo {
				t.Fatalf("accepted record outside the grid: %+v", r)
			}
		}
		fresh, replayed := remainingWork(&cfg, records)
		covered := replayed
		for i, s := range fresh {
			if s.ui < 0 || s.ui >= len(cfg.Utils) || s.lo < 0 || s.lo >= s.hi || s.hi > cfg.SetsPerPoint {
				t.Fatalf("fresh span %+v outside the grid", s)
			}
			if i > 0 {
				p := fresh[i-1]
				if p.ui > s.ui || (p.ui == s.ui && p.hi > s.lo) {
					t.Fatalf("fresh spans %+v and %+v out of order or overlapping", p, s)
				}
			}
			covered += s.hi - s.lo
		}
		if covered != total {
			t.Fatalf("fresh spans plus %d replayed sets cover %d sets, want %d", replayed, covered, total)
		}
	})
}
