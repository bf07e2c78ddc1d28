package expt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"
)

// This file is the campaign checkpoint journal: a schema-versioned,
// append-only record of completed leases that lets a coordinator
// restart resume a long campaign instead of re-running it. The format
// is JSON lines — one header, then one record per completed lease:
//
//	{"schema":"ftmc/dist-ckpt/v1","config":"<fnv1a-64 of config JSON>","utils":U,"sets":S,"ncfg":C}
//	{"ui":0,"lo":0,"hi":64,"v":[0,3,...]}
//	...
//
// A record's v holds the lease's packed verdict words exactly as the
// worker computed them (the packVerdicts encoding), so replay merges the
// same bytes a live result would have — restart cannot perturb the
// merged report. The config hash pins the journal to one campaign: a
// journal written for a different configuration is rejected rather
// than silently replayed into the wrong grid.
//
// Appends go straight to the file descriptor (no userspace buffering),
// so a coordinator crash loses at most the record being written when
// it died. A torn final line — the signature of exactly that crash —
// is tolerated on load: the tail is truncated and its lease simply
// runs again. Torn or invalid JSON anywhere else is corruption and
// errors out.

const ckptSchema = "ftmc/dist-ckpt/v1"

// ckptHeader is the journal's first line.
type ckptHeader struct {
	Schema string `json:"schema"`
	Config string `json:"config"`
	Utils  int    `json:"utils"`
	Sets   int    `json:"sets"`
	NCfg   int    `json:"ncfg"`
}

// ckptRecord is one completed lease: packed verdict words for sets
// [Lo, Hi) of utilization point UI.
type ckptRecord struct {
	UI int      `json:"ui"`
	Lo int      `json:"lo"`
	Hi int      `json:"hi"`
	V  []uint64 `json:"v"`
}

// ckptConfigHash fingerprints the campaign configuration the journal
// belongs to: FNV-1a 64 over the canonical (json.Marshal) config bytes.
func ckptConfigHash(cfgJSON []byte) string {
	h := fnv.New64a()
	h.Write(cfgJSON)
	return fmt.Sprintf("%016x", h.Sum64())
}

// distJournal appends completed-lease records to the checkpoint file.
// A nil journal is valid and appends nowhere — the no-checkpoint path.
type distJournal struct {
	mu         sync.Mutex
	f          *os.File
	buf        []byte // marshal scratch, reused across appends
	appended   int
	crashAfter int // fault injection: exit(3) after this many appends
}

// openDistJournal opens (creating if absent) the journal at path,
// validates its header against the campaign, and returns the replayed
// records of every completed lease it holds. The file is left
// positioned (and truncated) at the end of its last intact line, ready
// for appends.
func openDistJournal(path string, cfgJSON []byte, cfg *CampaignConfig, nCfg int) (*distJournal, []ckptRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	hdr := journalHeader(cfgJSON, cfg, nCfg)
	j := &distJournal{f: f}
	records, validOff, err := loadDistJournal(f, f.Name(), hdr, cfg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if validOff == 0 {
		// Fresh journal: write the header line.
		line, err := json.Marshal(hdr)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, nil, nil
	}
	// Drop any torn tail before appending, or the next record would
	// concatenate onto the partial line and corrupt the journal.
	if err := f.Truncate(validOff); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, records, nil
}

// journalHeader is the header line a journal of this campaign carries.
func journalHeader(cfgJSON []byte, cfg *CampaignConfig, nCfg int) ckptHeader {
	return ckptHeader{
		Schema: ckptSchema,
		Config: ckptConfigHash(cfgJSON),
		Utils:  len(cfg.Utils),
		Sets:   cfg.SetsPerPoint,
		NCfg:   nCfg,
	}
}

// loadDistJournal reads and validates the journal named name from rd,
// returning the intact records and the byte offset of the end of the
// last intact line.
func loadDistJournal(rd io.Reader, name string, want ckptHeader, cfg *CampaignConfig) ([]ckptRecord, int64, error) {
	r := bufio.NewReader(rd)
	var records []ckptRecord
	var off int64
	for lineNo := 0; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(bytes.TrimSpace(line)) != 0 && lineNo == 0 {
				return nil, 0, fmt.Errorf("expt: checkpoint %s: torn header", name)
			}
			// A torn (newline-less) final record is the crash signature;
			// drop it and let the lease run again.
			return records, off, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if lineNo == 0 {
			var hdr ckptHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return nil, 0, fmt.Errorf("expt: checkpoint %s: corrupt header: %w", name, err)
			}
			if hdr.Schema != want.Schema {
				return nil, 0, fmt.Errorf("expt: checkpoint %s: schema %q, want %q", name, hdr.Schema, want.Schema)
			}
			if hdr != want {
				return nil, 0, fmt.Errorf(
					"expt: checkpoint %s belongs to a different campaign (config %s grid %dx%dx%d, want %s grid %dx%dx%d)",
					name, hdr.Config, hdr.Utils, hdr.Sets, hdr.NCfg, want.Config, want.Utils, want.Sets, want.NCfg)
			}
			off += int64(len(line))
			continue
		}
		var rec ckptRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("expt: checkpoint %s: corrupt record on line %d: %w", name, lineNo+1, err)
		}
		if rec.UI < 0 || rec.UI >= len(cfg.Utils) ||
			rec.Lo < 0 || rec.Lo >= rec.Hi || rec.Hi > cfg.SetsPerPoint ||
			len(rec.V) != rec.Hi-rec.Lo {
			return nil, 0, fmt.Errorf("expt: checkpoint %s: record on line %d outside the campaign grid", name, lineNo+1)
		}
		records = append(records, rec)
		off += int64(len(line))
	}
}

// append journals one completed lease. Nil-safe: the no-checkpoint
// path calls through a nil journal.
func (j *distJournal) append(l lease, words []uint64) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := ckptRecord{UI: l.ui, Lo: l.lo, Hi: l.hi, V: words}
	line, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	j.buf = append(append(j.buf[:0], line...), '\n')
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("expt: checkpoint append: %w", err)
	}
	j.appended++
	if j.crashAfter > 0 && j.appended >= j.crashAfter {
		// Fault injection for the restart smoke test: die like a killed
		// coordinator would, after the record is safely in the file.
		os.Exit(3)
	}
	return nil
}

func (j *distJournal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// remainingWork subtracts the journaled records from the campaign grid:
// it returns the uncovered intervals (the lease table's fresh spans, in
// grid order) and the number of sets the journal already covers.
// Records may overlap — two coordinator generations can journal the
// same lease across a crash — and the merge makes replay idempotent.
func remainingWork(cfg *CampaignConfig, records []ckptRecord) ([]spanWork, int) {
	perUI := make([][][2]int, len(cfg.Utils))
	for _, r := range records {
		perUI[r.UI] = append(perUI[r.UI], [2]int{r.Lo, r.Hi})
	}
	var fresh []spanWork
	replayed := 0
	for ui := range cfg.Utils {
		ivs := perUI[ui]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		at := 0
		for _, iv := range ivs {
			if iv[0] > at {
				fresh = append(fresh, spanWork{ui: ui, lo: at, hi: iv[0]})
			}
			if iv[1] > at {
				replayed += iv[1] - max(at, iv[0])
				at = iv[1]
			}
		}
		if at < cfg.SetsPerPoint {
			fresh = append(fresh, spanWork{ui: ui, lo: at, hi: cfg.SetsPerPoint})
		}
	}
	return fresh, replayed
}
