package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obsv"
)

// This file is the pipelined coordinator driver of the wire protocol.
// The coordinator keeps a window of leaseWindow leases in flight per
// worker — double buffering: the worker always has the next lease
// queued while evaluating the current one, so it never idles on a
// round-trip — a dedicated reader goroutine merges results as they
// arrive, and grants are batched through one buffered writer so a
// window refill costs one transport handoff.
//
// Reassignment-on-loss extends to the whole window: when a worker is
// abandoned (transport error, worker-reported error, protocol
// violation or lease deadline), the connection is closed first and
// then every lease in its window is requeued. A result racing the
// abandonment may already be merging, but a double merge is benign by
// construction: a set's verdict words are a pure function of its grid
// coordinates, so the regranted lease rewrites the same bytes. Closing
// first just stops the dead worker from burning cycles.
//
// A lease leaves the window (the outst map) exactly once, and whichever
// goroutine takes it out settles it in the lease table and the
// in-flight gauge: the reader completes a lease it merged and requeues
// one whose result it could not decode; the driver requeues whatever
// is still in the window when it abandons the worker.

// leaseWindow is the number of leases kept in flight per worker: the
// one being evaluated and the next one queued behind it.
const leaseWindow = 2

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
	typ byte
	err error
}

// runWorkerWire drives one worker connection over the frame protocol:
// preamble + hello, then a pipelined window of leases until the table
// drains or the worker is lost.
func (d *distDriver) runWorkerWire(conn io.ReadWriteCloser) {
	m := exptView.Get()
	bw := getBufWriter(conn)
	enc := newFrameEnc(bw)
	br := getBufReader(conn)
	dec := newFrameDec(br)

	var omu sync.Mutex
	outst := make(map[int]grantRec, leaseWindow)
	events := make(chan wireEvent, leaseWindow+2)
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
	if _, err := bw.Write([]byte{wireMagic, wireVersion}); err != nil {
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

	for {
		// Top the window up. Blocking is only allowed with an empty
		// window: with leases in flight the driver must stay responsive
		// to results, so it polls and falls through to the event wait.
		granted := false
		for outstanding < leaseWindow {
			l, ok, done, err := d.table.next(d.opt.LeaseSets, outstanding == 0)
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
			if v != wireVersion {
				send(wireEvent{err: fmt.Errorf("expt: worker speaks wire version %d, coordinator speaks %d", v, wireVersion)})
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
			if !send(wireEvent{typ: frameResult}) {
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
