package expt

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"time"
)

// This file is the coordinator driver of the wire protocol. One
// goroutine owns each worker connection end to end, in one loop: top
// the window up to leaseWindow grants and flush them as one transport
// handoff, read one frame, merge and complete that lease, and repeat.
// Two leases in flight is double buffering: the worker always has the
// next lease queued while it evaluates the current one, so it never
// idles on a round-trip.
//
// Any loss abandons the worker: a transport error, an error frame, a
// result whose id is not in the window, or a result that does not
// decode. One deferred block then closes the connection (first, so the
// dead worker stops computing for nothing) and requeues every lease
// still in the window. Only this goroutine ever reads the
// connection, so once it stops reading no late result can merge: a
// requeued lease merges only at its next holder.
//
// The worker side keeps one reader goroutine (serveWorker), and must:
// net.Pipe, which PipeWorkers and the tests use, is synchronous, so a
// write blocks until the other side reads. Were the worker one
// sequential loop like this driver, a driver blocked writing lease k+2
// and a worker blocked writing result k+1 would deadlock.

// leaseWindow is the number of leases kept in flight per worker: the
// one being evaluated and the next one queued behind it.
const leaseWindow = 2

// grantRec is one in-flight lease: what was granted and when, so a
// result can be matched to its grant and its grant→result latency
// observed.
type grantRec struct {
	l  lease
	at time.Time
}

// runWorkerWire drives one worker connection over the frame protocol:
// preamble + hello, then a window of leases until the table drains or
// the worker is lost.
func (d *distDriver) runWorkerWire(conn io.ReadWriteCloser) {
	m := exptView.Get()
	bw := bufio.NewWriterSize(conn, wireBufSize)
	enc := newFrameEnc(bw)
	dec := newFrameDec(bufio.NewReaderSize(conn, wireBufSize))

	var win []grantRec
	lost := true
	defer func() {
		conn.Close()
		if lost {
			for _, g := range win {
				d.table.abandon(g.l)
			}
			d.fail()
		}
		m.distInflight.Add(-int64(len(win)))
		d.addTraffic(enc.bytesOut, dec.bytesIn, enc.frames, dec.frames)
	}()

	// Handshake: preamble, hello, await ready.
	if _, err := bw.Write([]byte{wireMagic, wireVersion}); err != nil {
		return
	}
	enc.bytesOut += 2
	enc.begin(frameHello)
	enc.lenBytes(d.helloJSON)
	if enc.flush() != nil || bw.Flush() != nil || readReady(dec) != nil {
		return
	}

	var words []uint64 // one result's verdict words, reused
	for {
		// Top the window up. Only an empty window may block: with leases
		// in flight the driver must go on reading their results.
		for len(win) < leaseWindow {
			l, ok, done := d.table.next(d.opt.LeaseSets, len(win) == 0)
			if done {
				// Run complete: release the worker.
				lost = false
				enc.begin(frameDone)
				if enc.flush() == nil {
					bw.Flush()
				}
				return
			}
			if !ok {
				break
			}
			win = append(win, grantRec{l: l, at: time.Now()})
			m.distInflight.Add(1)
			enc.begin(frameLease)
			enc.uvarint(uint64(l.id))
			enc.uvarint(uint64(l.ui))
			enc.uvarint(uint64(l.lo))
			enc.uvarint(uint64(l.hi))
			if enc.flush() != nil {
				return
			}
			m.distLeaseSets.Observe(int64(l.hi - l.lo))
		}
		if bw.Flush() != nil { // writes only if this pass granted
			return
		}

		t, body, err := dec.next()
		if err != nil || t != frameResult {
			return // transport error, error frame or protocol violation
		}
		r := wireBuf{b: body}
		id, err := r.intField()
		if err != nil {
			return
		}
		i := slices.IndexFunc(win, func(g grantRec) bool { return g.l.id == id })
		if i < 0 {
			return // not a lease this worker holds
		}
		g := win[i]
		words = words[:0]
		if decodeResultWords(&r, g.l.hi-g.l.lo, func(_ int, w uint64) { words = append(words, w) }) != nil {
			return
		}
		d.mergeLease(g.l, words)
		win = slices.Delete(win, i, i+1)
		d.table.complete()
		m.distInflight.Add(-1)
		m.distLeaseNs.Observe(int64(time.Since(g.at)))
	}
}

// readReady reads the worker's ready frame and checks its wire
// version.
func readReady(dec *frameDec) error {
	t, body, err := dec.next()
	if err != nil {
		return err
	}
	if t != frameReady {
		return fmt.Errorf("expt: got wire frame %#x from worker, want ready", t)
	}
	r := wireBuf{b: body}
	v, err := r.uvarint()
	if err != nil {
		return err
	}
	if v != wireVersion {
		return fmt.Errorf("expt: worker speaks wire version %d, coordinator speaks %d", v, wireVersion)
	}
	return nil
}
