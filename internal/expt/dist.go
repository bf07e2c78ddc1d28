package expt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obsv"
)

// This file is the coordinator side of the distributed campaign runner:
// DistCampaign shards one expt.Campaign across worker processes (or any
// set of byte-stream connections) and merges their partial verdicts
// into a CampaignResult that is byte-identical to the single-process
// Campaign on the same CampaignConfig.
//
// Why byte-identity holds: every (utilization point ui, set i) draws
// its workload from the keyed stream gen.SimulationKey{Seed, 0, ui, i}
// — a pure function of the grid coordinates — and its verdicts under
// every (panel, f) configuration are a pure function of that draw and
// the configuration. The coordinator merges each result into the
// verdict vector at the set's absolute index, and the final reduction
// counts exact integer acceptances per configuration. No step depends
// on which worker evaluated a set, how the grid was cut into leases,
// when results arrived, how many times a lease was reassigned or how
// many leases were in flight — so the merged CampaignResult (and hence
// any serialization of it) equals the single-process run bit for bit.
// Checkpoint replay preserves the same argument: a journaled lease
// holds the exact verdict words the worker computed, merged at the
// same absolute indexes.
//
// The lease traffic is the length-prefixed binary frame protocol of
// wire.go, driven with a window of two in-flight leases per worker
// (pipeline.go).

// maxDistConfigs bounds the panel × failure-probability cross-product a
// result word can carry: 2 bits per configuration in a uint64, with the
// top two bits left unused so the packed value stays in int64 range for
// any JSON consumer of the checkpoint journal. The paper's figure
// needs 8.
const maxDistConfigs = 31

// DistOptions tunes the lease protocol.
type DistOptions struct {
	// LeaseSets is the number of sets per lease (default 64). Smaller
	// leases rebalance and reassign at finer grain; larger leases
	// amortize the round-trip. The merged result is identical for any
	// value — lease shape is a scheduling knob, like the pool's chunk
	// size.
	LeaseSets int
	// LeaseTimeout, when positive, is a deadline that runs during the
	// handshake, and while the worker holds leases: a worker that sends
	// no ready or result frame for this long is abandoned — its
	// connection closed so a late result can never merge — and its
	// leases are reassigned. A worker waiting for work is not timed.
	LeaseTimeout time.Duration
	// Checkpoint, when non-empty, is the path of the campaign's
	// checkpoint journal: the coordinator appends one record per
	// completed lease (schema ftmc/dist-ckpt/v1, see distckpt.go) and
	// on restart replays the journal, re-queuing only unfinished work.
	Checkpoint string
	// CrashAfterLeases is fault injection for the restart path: when
	// positive (and Checkpoint is set), the coordinator process exits
	// with status 3 after journaling that many leases — the
	// kill-the-coordinator half of the checkpoint/restart smoke test.
	// Never set it outside tests.
	CrashAfterLeases int
}

// withDefaults resolves the option defaults in one place.
func (o DistOptions) withDefaults() DistOptions {
	if o.LeaseSets <= 0 {
		o.LeaseSets = 64
	}
	return o
}

// DistReport is the coordinator's account of one distributed run.
type DistReport struct {
	// Workers is the number of connections the run started with;
	// WorkerFailures how many were lost (handshake failure, transport
	// error, worker-reported error or lease deadline).
	Workers        int `json:"workers"`
	WorkerFailures int `json:"worker_failures"`
	// Leases is the number of lease grants including regrants;
	// Reassigned counts requeues after a worker loss.
	Leases     int `json:"leases"`
	Reassigned int `json:"reassigned"`
	// BytesOut / BytesIn / FramesOut / FramesIn count the coordinator's
	// lease-protocol traffic across all workers (handshake included).
	// BytesIn/Leases is the wire cost of one result.
	BytesOut  uint64 `json:"bytes_out"`
	BytesIn   uint64 `json:"bytes_in"`
	FramesOut uint64 `json:"frames_out"`
	FramesIn  uint64 `json:"frames_in"`
	// ReplayedSets counts sets restored from the checkpoint journal
	// instead of granted to workers.
	ReplayedSets int `json:"replayed_sets"`
	// Manifest records the provenance of every participating process;
	// its Mismatches field surfaces workers built from a different
	// toolchain or revision than the coordinator.
	Manifest obsv.MergedManifest `json:"manifest"`
}

// lease is one unit of assigned work: sets [lo, hi) of utilization
// point ui. The id is unique per grant (regrants get fresh ids), so a
// driver can match results to grants unambiguously.
type lease struct {
	id, ui, lo, hi int
}

// spanWork is an uncarved interval of the campaign grid awaiting
// grant: sets [lo, hi) of point ui. Checkpoint replay can fragment a
// point into several intervals.
type spanWork struct {
	ui, lo, hi int
}

// leaseTable is the coordinator's scheduler state: uncarved grid
// intervals, a queue of abandoned leases awaiting regrant, the count
// of leases currently held by workers, and the count of workers still
// alive. Fresh leases are carved on demand at the size the driver
// requests, while abandoned leases are regranted verbatim (their exact
// range is what the failed worker owed).
type leaseTable struct {
	mu       sync.Mutex
	cond     *sync.Cond
	fresh    []spanWork
	freshAt  int
	requeued []lease
	out      int // leases granted and not yet completed or requeued
	alive    int // drivers that have not failed or finished
	grants   int
	requeue  int
	err      error
}

func newLeaseTable(fresh []spanWork, workers int) *leaseTable {
	t := &leaseTable{fresh: fresh, alive: workers}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// grantLocked carves or regrants up to max sets; callers hold mu.
func (t *leaseTable) grantLocked(max int) (lease, bool) {
	if max < 1 {
		max = 1
	}
	if len(t.requeued) > 0 {
		l := t.requeued[0]
		t.requeued = t.requeued[1:]
		l.id = t.grants
		t.grants++
		t.out++
		return l, true
	}
	for t.freshAt < len(t.fresh) {
		s := &t.fresh[t.freshAt]
		if s.lo >= s.hi {
			t.freshAt++
			continue
		}
		// Replay can leave a span starting above 0, where s.lo + max
		// would overflow for a huge max.
		hi := s.hi
		if hi-s.lo > max {
			hi = s.lo + max
		}
		l := lease{id: t.grants, ui: s.ui, lo: s.lo, hi: hi}
		s.lo = hi
		t.grants++
		t.out++
		return l, true
	}
	return lease{}, false
}

// remainingLocked reports whether any work is ungranted or in flight.
func (t *leaseTable) remainingLocked() bool {
	if len(t.requeued) > 0 || t.out > 0 {
		return true
	}
	for i := t.freshAt; i < len(t.fresh); i++ {
		if t.fresh[i].lo < t.fresh[i].hi {
			return true
		}
	}
	return false
}

// next grants a lease of up to max sets. ok is false when nothing is
// grantable: then done reports whether every lease has completed (the
// run is over) and err is non-nil when the run is lost (every worker
// failed with leases outstanding). With block set, next waits for a
// grantable lease instead of returning ok=false while other workers
// still hold leases — the mode a driver with no leases of its own in
// flight uses.
func (t *leaseTable) next(max int, block bool) (l lease, ok, done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.err != nil {
			return lease{}, false, false, t.err
		}
		if l, ok := t.grantLocked(max); ok {
			return l, true, false, nil
		}
		if t.out == 0 {
			return lease{}, false, true, nil
		}
		if !block {
			return lease{}, false, false, nil
		}
		// Leases are out on other workers; wait in case one requeues.
		t.cond.Wait()
	}
}

// complete marks a granted lease merged.
func (t *leaseTable) complete() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.out--
	if t.out == 0 && !t.remainingLocked() {
		t.cond.Broadcast()
	}
}

// abandon returns a granted lease to the queue (worker lost) and wakes
// idle drivers to pick it up.
func (t *leaseTable) abandon(l lease) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.out--
	t.requeued = append(t.requeued, l)
	t.requeue++
	t.cond.Broadcast()
}

// poison fails the whole run: every driver sees err from its next
// call. Used for coordinator-side losses (checkpoint write failure)
// that no amount of lease reassignment can route around.
func (t *leaseTable) poison(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
	}
	t.cond.Broadcast()
}

// driverExit records a driver leaving; failed drivers that leave work
// behind with no one alive to take it poison the table.
func (t *leaseTable) driverExit() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.alive--
	if t.alive == 0 && t.remainingLocked() && t.err == nil {
		t.err = errors.New("expt: every distributed worker failed with leases outstanding")
	}
	t.cond.Broadcast()
}

// distDriver is the shared coordinator state: one driver goroutine
// owns one worker connection end to end; the verdict vector, lease
// table and journal are shared across drivers.
type distDriver struct {
	table     *leaseTable
	cfg       *CampaignConfig
	nCfg      int
	verdicts  []verdict
	opt       DistOptions
	helloJSON []byte // the campaign config, marshaled once for every hello
	journal   *distJournal

	mu        sync.Mutex // guards the fields below across drivers
	manifests []obsv.Manifest
	failures  int
	bytesOut  uint64
	bytesIn   uint64
	framesOut uint64
	framesIn  uint64
}

// mergeLease unpacks one lease's verdict words at their absolute
// indexes. Safe to call concurrently for distinct leases: ranges of
// live grants never overlap.
func (d *distDriver) mergeLease(l lease, words []uint64) {
	for j, w := range words {
		set := l.lo + j
		base := (l.ui*d.cfg.SetsPerPoint + set) * d.nCfg
		for c := 0; c < d.nCfg; c++ {
			d.verdicts[base+c] = verdict{
				base:  w>>(2*uint(c))&1 == 1,
				adapt: w>>(2*uint(c)+1)&1 == 1,
			}
		}
	}
}

// fail counts a lost worker.
func (d *distDriver) fail() {
	d.mu.Lock()
	d.failures++
	d.mu.Unlock()
	exptView.Get().distWorkerFailures.Inc()
}

// addManifest records one worker's ready manifest.
func (d *distDriver) addManifest(m obsv.Manifest) {
	d.mu.Lock()
	d.manifests = append(d.manifests, m)
	d.mu.Unlock()
}

// addTraffic folds one connection's byte/frame accounting into the
// run totals (and the expt.dist.* counters).
func (d *distDriver) addTraffic(out, in uint64, fout, fin uint64) {
	d.mu.Lock()
	d.bytesOut += out
	d.bytesIn += in
	d.framesOut += fout
	d.framesIn += fin
	d.mu.Unlock()
	m := exptView.Get()
	m.distBytesOut.Add(out)
	m.distBytesIn.Add(in)
	m.distFramesOut.Add(fout)
	m.distFramesIn.Add(fin)
}

// DistCampaign runs cfg sharded across the given worker connections —
// each speaking the ServeWorker protocol, typically the stdio of a
// cmd/ftmc-worker subprocess (StartWorkerProcs) or a TCP connection
// (AcceptWorkers) — and merges the partial results. The returned
// CampaignResult is byte-identical to Campaign(cfg) for any number of
// connections, any lease size, any worker loss short of all of them,
// any FTMC_WORKERS setting inside the workers, and any
// checkpoint/restart cut (see the file comment for why). Connections
// are closed before returning.
func DistCampaign(cfg CampaignConfig, conns []io.ReadWriteCloser, opt DistOptions) (CampaignResult, DistReport, error) {
	if err := cfg.Validate(); err != nil {
		return CampaignResult{}, DistReport{}, err
	}
	if len(conns) == 0 {
		return CampaignResult{}, DistReport{}, errors.New("expt: distributed campaign needs at least one worker connection")
	}
	nCfg := len(cfg.Panels) * len(cfg.FailProbs)
	if nCfg > maxDistConfigs {
		return CampaignResult{}, DistReport{}, fmt.Errorf(
			"expt: %d panel × failure-probability configurations exceed the wire format's %d", nCfg, maxDistConfigs)
	}
	opt = opt.withDefaults()

	helloJSON, err := json.Marshal(&cfg)
	if err != nil {
		return CampaignResult{}, DistReport{}, err
	}
	d := &distDriver{
		cfg:       &cfg,
		nCfg:      nCfg,
		verdicts:  make([]verdict, len(cfg.Utils)*cfg.SetsPerPoint*nCfg),
		opt:       opt,
		helloJSON: helloJSON,
	}

	// Restore journaled work first: replayed leases merge straight into
	// the verdict vector and only the gaps go back on the table.
	replayedSets := 0
	var fresh []spanWork
	if opt.Checkpoint != "" {
		journal, records, err := openDistJournal(opt.Checkpoint, helloJSON, &cfg, nCfg)
		if err != nil {
			return CampaignResult{}, DistReport{}, err
		}
		journal.crashAfter = opt.CrashAfterLeases
		d.journal = journal
		defer journal.Close()
		for _, r := range records {
			d.mergeLease(lease{ui: r.UI, lo: r.Lo, hi: r.Hi}, r.V)
		}
		fresh, replayedSets = remainingWork(&cfg, records)
		exptView.Get().distReplayedSets.Add(uint64(replayedSets))
	} else {
		for ui := range cfg.Utils {
			fresh = append(fresh, spanWork{ui: ui, lo: 0, hi: cfg.SetsPerPoint})
		}
	}
	d.table = newLeaseTable(fresh, len(conns))

	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func(conn io.ReadWriteCloser) {
			defer wg.Done()
			d.runWorkerWire(conn)
		}(conn)
	}
	wg.Wait()

	rep := DistReport{
		Workers:        len(conns),
		WorkerFailures: d.failures,
		Leases:         d.table.grants,
		Reassigned:     d.table.requeue,
		BytesOut:       d.bytesOut,
		BytesIn:        d.bytesIn,
		FramesOut:      d.framesOut,
		FramesIn:       d.framesIn,
		ReplayedSets:   replayedSets,
		Manifest:       obsv.MergeManifests(obsv.NewManifest(), d.manifests),
	}
	m := exptView.Get()
	m.distLeases.Add(uint64(rep.Leases))
	m.distReassigned.Add(uint64(rep.Reassigned))
	m.distWorkerFailures.Add(uint64(rep.WorkerFailures))
	if err := d.table.err; err != nil {
		return CampaignResult{}, rep, err
	}

	res := newEmptyResult(cfg)
	stride := cfg.SetsPerPoint * nCfg
	for ui := range cfg.Utils {
		reduceCampaignPoint(&res, ui, d.verdicts[ui*stride:(ui+1)*stride])
	}
	return res, rep, nil
}
