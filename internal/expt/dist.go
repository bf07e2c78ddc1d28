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
//
// The lease traffic is the length-prefixed binary frame protocol of
// wire.go, driven with a window of two in-flight leases per worker
// (pipeline.go).

// maxDistConfigs bounds the panel × failure-probability cross-product a
// result word can carry: 2 bits per configuration in a uint64, with the
// top two bits left unused so every packed word is also a non-negative
// int64. The paper's figure needs 8.
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

// leaseTable is the coordinator's scheduler state: a cursor over the
// uncarved campaign grid, a queue of abandoned leases awaiting regrant
// and the count of leases currently held by workers. Fresh leases are
// carved on demand at the size the driver requests, while abandoned
// leases are regranted verbatim (their exact range is what the failed
// worker owed).
type leaseTable struct {
	mu       sync.Mutex
	cond     *sync.Cond
	points   int // utilization points in the grid
	sets     int // sets per point
	ui, lo   int // the next uncarved set: set lo of point ui
	requeued []lease
	out      int // leases granted and not yet completed or requeued
	grants   int
	requeue  int
}

func newLeaseTable(points, sets int) *leaseTable {
	t := &leaseTable{points: points, sets: sets}
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
	if t.ui == t.points {
		return lease{}, false
	}
	// Past the first lease of a point t.lo is above 0, where t.lo + max
	// would overflow for a huge max.
	hi := t.sets
	if hi-t.lo > max {
		hi = t.lo + max
	}
	l := lease{id: t.grants, ui: t.ui, lo: t.lo, hi: hi}
	t.lo = hi
	if hi == t.sets {
		t.ui, t.lo = t.ui+1, 0
	}
	t.grants++
	t.out++
	return l, true
}

// remainingLocked reports whether any work is ungranted or in flight.
func (t *leaseTable) remainingLocked() bool {
	return len(t.requeued) > 0 || t.out > 0 || t.ui < t.points
}

// next grants a lease of up to max sets. ok is false when nothing is
// grantable: then done reports whether every lease has completed (the
// run is over). With block set, next waits for a grantable lease
// instead of returning ok=false while other workers still hold leases
// — the mode a driver with no leases of its own in flight uses.
func (t *leaseTable) next(max int, block bool) (l lease, ok, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if l, ok := t.grantLocked(max); ok {
			return l, true, false
		}
		if t.out == 0 {
			return lease{}, false, true
		}
		if !block {
			return lease{}, false, false
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
	if !t.remainingLocked() {
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

// distDriver is the shared coordinator state: one driver goroutine
// owns one worker connection end to end; the verdict vector and lease
// table are shared across drivers.
type distDriver struct {
	table     *leaseTable
	cfg       *CampaignConfig
	nCfg      int
	verdicts  []verdict
	opt       DistOptions
	helloJSON []byte // the campaign config, marshaled once for every hello

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

// fail counts a lost worker. The expt.dist.worker_failures counter
// takes the run's total once, when DistCampaign returns.
func (d *distDriver) fail() {
	d.mu.Lock()
	d.failures++
	d.mu.Unlock()
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
// connections, any lease size, any worker loss short of all of them
// and any FTMC_WORKERS setting inside the workers (see the file comment
// for why). Connections are closed before returning.
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
		table:     newLeaseTable(len(cfg.Utils), cfg.SetsPerPoint),
	}

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
		Manifest:       obsv.MergeManifests(obsv.NewManifest(), d.manifests),
	}
	m := exptView.Get()
	m.distLeases.Add(uint64(rep.Leases))
	m.distReassigned.Add(uint64(rep.Reassigned))
	m.distWorkerFailures.Add(uint64(rep.WorkerFailures))
	// Every driver has returned, so work is left only if every worker
	// failed with leases outstanding.
	if d.table.remainingLocked() {
		return CampaignResult{}, rep, errors.New("expt: every distributed worker failed with leases outstanding")
	}

	res := newEmptyResult(cfg)
	stride := cfg.SetsPerPoint * nCfg
	for ui := range cfg.Utils {
		reduceCampaignPoint(&res, ui, d.verdicts[ui*stride:(ui+1)*stride])
	}
	return res, rep, nil
}
