package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obsv"
)

// This file is the pipelined coordinator driver of the binary wire
// protocol. The legacy JSON driver is strict request-response: the
// worker idles for a full coordinator round-trip between finishing one
// lease and receiving the next. Here the coordinator keeps a window of
// leases in flight per worker (DistOptions.Window, default 2 — double
// buffering: the worker always has the next lease queued while
// evaluating the current one), a dedicated reader goroutine merges
// results as they arrive, and grants are batched through one buffered
// writer so a window refill costs one transport handoff.
//
// Reassignment-on-loss extends to the whole window: when a worker is
// abandoned (transport error, worker-reported error, protocol
// violation or lease deadline), the connection is closed first and
// then every lease in its window is requeued. Unlike the JSON driver,
// closing first is not needed to prevent a double merge — a result
// racing the abandonment may already be merging — but a double merge
// is benign by construction: a set's verdict words are a pure function
// of its grid coordinates, so the regranted lease rewrites the same
// bytes. Closing first just stops the dead worker from burning cycles.
//
// A lease leaves the window (the outst map) exactly once, and whichever
// goroutine takes it out settles it in the lease table and the
// in-flight gauge: the reader completes a lease it merged and requeues
// one whose result it could not decode; the driver requeues whatever
// is still in the window when it abandons the worker.
//
// Adaptive sizing: fresh leases are carved on demand (leaseTable
// carves at whatever size the driver asks), so each driver can resize
// its grants toward DistOptions.TargetLeaseLatency using an EWMA of
// the worker's observed per-set service time. Fast workers get big
// leases that amortize the round-trip; slow or WAN workers get small
// ones that reassign cheaply. Sizing, window depth and grant timing
// are all scheduling knobs: the merged result is byte-identical under
// any trajectory, because merges land at absolute set indexes.

// grantRec is one in-flight lease: what was granted and when, so the
// reader can validate the result header against the grant and observe
// the grant→result latency.
type grantRec struct {
	l  lease
	at time.Time
}

// wireEvent is what the reader goroutine reports to the driver loop:
// a ready or result frame, or the error that ended the connection.
type wireEvent struct {
	typ  byte
	sets int
	err  error
}

// leaseSizer adapts grant sizes toward a target lease latency from an
// EWMA of the worker's per-set service time. With no target (or no
// observation yet) it grants the fixed base size.
type leaseSizer struct {
	base, min, max int
	target         float64 // ns; 0 disables adaptation
	perSetNs       float64 // EWMA of observed per-set service time
}

func (s *leaseSizer) size() int {
	if s.target <= 0 || s.perSetNs <= 0 {
		return s.base
	}
	n := int(s.target / s.perSetNs)
	if n < s.min {
		n = s.min
	}
	if n > s.max {
		n = s.max
	}
	return n
}

// observe folds one completion into the EWMA. took is the time since
// the previous completion (or since the window opened): under a
// saturated pipeline that is the worker's service time for those sets.
func (s *leaseSizer) observe(sets int, took time.Duration) {
	if sets <= 0 || took <= 0 {
		return
	}
	per := float64(took) / float64(sets)
	if s.perSetNs == 0 {
		s.perSetNs = per
	} else {
		s.perSetNs = 0.7*s.perSetNs + 0.3*per
	}
}

// runWorkerWire drives one worker connection over the binary frame
// protocol: preamble + hello, then a pipelined window of leases until
// the table drains or the worker is lost.
func (d *distDriver) runWorkerWire(conn io.ReadWriteCloser) {
	m := exptView.Get()
	bw := getBufWriter(conn)
	enc := newFrameEnc(bw)
	br := getBufReader(conn)
	dec := newFrameDec(br)

	var omu sync.Mutex
	outst := make(map[int]grantRec, d.opt.Window)
	events := make(chan wireEvent, d.opt.Window+2)
	quit := make(chan struct{})
	rdDone := make(chan struct{})
	defer func() {
		// Stop the reader before touching the codec counters: close the
		// transport out from under its blocking read, then wait it out.
		conn.Close()
		close(quit)
		<-rdDone
		d.addTraffic(enc.bytesOut, dec.bytesIn, enc.frames, dec.frames)
		putBufReader(br) // safe: the reader goroutine has exited
		putBufWriter(bw)
		d.table.driverExit()
	}()
	go d.readWire(dec, outst, &omu, events, quit, rdDone)

	outstanding := 0
	abandonAll := func() {
		conn.Close() // first, so the worker stops computing for nothing
		omu.Lock()
		ls := make([]lease, 0, len(outst))
		for id, g := range outst {
			ls = append(ls, g.l)
			delete(outst, id)
		}
		omu.Unlock()
		for _, l := range ls {
			d.table.abandon(l)
		}
		m.distInflight.Add(-int64(len(ls)))
		outstanding = 0
		d.fail()
	}

	var timer *time.Timer
	var deadline <-chan time.Time
	if d.opt.LeaseTimeout > 0 {
		timer = time.NewTimer(d.opt.LeaseTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	resetTimer := func() {
		if timer == nil {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d.opt.LeaseTimeout)
	}

	// Handshake: preamble, hello, await ready.
	if _, err := bw.Write([]byte{wireMagic, wireV1}); err != nil {
		d.fail()
		return
	}
	enc.bytesOut += 2
	enc.begin(frameHello)
	enc.lenBytes(d.helloJSON)
	if enc.flush() != nil || bw.Flush() != nil {
		d.fail()
		return
	}
	select {
	case ev := <-events:
		if ev.err != nil || ev.typ != frameReady {
			d.fail()
			return
		}
	case <-deadline:
		d.fail()
		return
	}
	resetTimer()

	sizer := leaseSizer{
		base:   d.opt.LeaseSets,
		min:    d.opt.MinLeaseSets,
		max:    d.opt.MaxLeaseSets,
		target: float64(d.opt.TargetLeaseLatency),
	}
	lastMark := time.Now()
	for {
		// Top the window up. Blocking is only allowed with an empty
		// window: with leases in flight the driver must stay responsive
		// to results, so it polls and falls through to the event wait.
		granted := false
		for outstanding < d.opt.Window {
			l, ok, done, err := d.table.next(sizer.size(), outstanding == 0)
			if err != nil || done {
				// Run complete (or lost): release the worker either way.
				enc.begin(frameDone)
				if enc.flush() == nil {
					bw.Flush()
				}
				return
			}
			if !ok {
				break
			}
			omu.Lock()
			outst[l.id] = grantRec{l: l, at: time.Now()}
			omu.Unlock()
			m.distInflight.Add(1)
			enc.begin(frameLease)
			enc.uvarint(uint64(l.id))
			enc.uvarint(uint64(l.ui))
			enc.uvarint(uint64(l.lo))
			enc.uvarint(uint64(l.hi))
			if err := enc.flush(); err != nil {
				abandonAll()
				return
			}
			outstanding++
			granted = true
			m.distLeaseSets.Observe(int64(l.hi - l.lo))
		}
		if granted {
			if err := bw.Flush(); err != nil {
				abandonAll()
				return
			}
		}

		select {
		case ev := <-events:
			if ev.err != nil || ev.typ != frameResult {
				abandonAll()
				return
			}
			outstanding-- // the reader settled the lease
			now := time.Now()
			sizer.observe(ev.sets, now.Sub(lastMark))
			lastMark = now
			resetTimer()
		case <-deadline:
			abandonAll()
			return
		}
	}
}

// readWire is the driver's reader goroutine: it decodes frames off the
// connection, merges results straight into the shared verdict vector
// (no intermediate copy — the grant's range is exclusive to this
// worker while it is outstanding), journals and completes merged
// leases, requeues a lease whose result does not decode, and reports
// ready/result/error events to the driver loop.
func (d *distDriver) readWire(dec *frameDec, outst map[int]grantRec, omu *sync.Mutex, events chan<- wireEvent, quit <-chan struct{}, rdDone chan<- struct{}) {
	defer close(rdDone)
	send := func(ev wireEvent) bool {
		select {
		case events <- ev:
			return true
		case <-quit:
			return false
		}
	}
	m := exptView.Get()
	var jwords []uint64 // journal copy of the lease's words, reused
	for {
		t, body, err := dec.next()
		if err != nil {
			send(wireEvent{err: err})
			return
		}
		r := wireBuf{b: body}
		switch t {
		case frameReady:
			v, err := r.uvarint()
			if err != nil {
				send(wireEvent{err: err})
				return
			}
			if v < 1 || v > wireV1 {
				send(wireEvent{err: fmt.Errorf("expt: worker negotiated unsupported wire version %d", v)})
				return
			}
			mb, err := r.lenBytes()
			if err != nil {
				send(wireEvent{err: err})
				return
			}
			var man obsv.Manifest
			if err := json.Unmarshal(mb, &man); err != nil {
				send(wireEvent{err: fmt.Errorf("expt: worker manifest: %w", err)})
				return
			}
			d.addManifest(man)
			if !send(wireEvent{typ: frameReady}) {
				return
			}
		case frameResult:
			id, err := r.intField()
			if err != nil {
				send(wireEvent{err: err})
				return
			}
			omu.Lock()
			g, ok := outst[id]
			if ok {
				delete(outst, id)
			}
			omu.Unlock()
			if !ok {
				send(wireEvent{err: fmt.Errorf("expt: result for unknown lease %d", id)})
				return
			}
			l := g.l
			n := l.hi - l.lo
			collect := d.journal != nil
			words := jwords[:0]
			base0 := (l.ui*d.cfg.SetsPerPoint + l.lo) * d.nCfg
			err = decodeResultWords(&r, n, func(j int, w uint64) {
				if collect {
					words = append(words, w)
				}
				off := base0 + j*d.nCfg
				for c := 0; c < d.nCfg; c++ {
					d.verdicts[off+c] = verdict{
						base:  w>>(2*uint(c))&1 == 1,
						adapt: w>>(2*uint(c)+1)&1 == 1,
					}
				}
			})
			if err != nil {
				d.table.abandon(l)
				m.distInflight.Add(-1)
				send(wireEvent{err: err})
				return
			}
			jwords = words
			if collect {
				if err := d.journal.append(l, words); err != nil {
					// A journal failure is a coordinator-side loss: poison
					// the run rather than blaming (and cycling through)
					// every worker.
					d.table.poison(err)
					d.table.abandon(l)
					m.distInflight.Add(-1)
					send(wireEvent{err: err})
					return
				}
			}
			d.table.complete()
			m.distInflight.Add(-1)
			m.distLeaseNs.Observe(int64(time.Since(g.at)))
			if !send(wireEvent{typ: frameResult, sets: n}) {
				return
			}
		case frameError:
			id, _ := r.uvarint()
			msg, err := r.lenBytes()
			if err != nil {
				send(wireEvent{err: err})
				return
			}
			send(wireEvent{err: fmt.Errorf("expt: worker failed lease %d: %s", id, msg)})
			return
		default:
			send(wireEvent{err: fmt.Errorf("expt: unexpected wire frame %#x from worker", t)})
			return
		}
	}
}
