package expt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// TestWireFrameRoundTrip drives the codec over every frame shape:
// a large hello body, a one-field ready body, a result bitmap and an
// empty done frame, back to back on one stream.
func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := newFrameEnc(&buf)

	big := bytes.Repeat([]byte("fault-tolerant mixed criticality "), 64)
	words := []uint64{0, 0, 7, 7, 7, 1 << 62, 0, 42}

	enc.begin(frameHello)
	enc.lenBytes(big)
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	enc.begin(frameReady)
	enc.uvarint(wireVersion)
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	enc.begin(frameResult)
	enc.uvarint(9)
	enc.appendResultWords(words)
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	enc.begin(frameDone)
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	if enc.frames != 4 || enc.bytesOut != uint64(buf.Len()) {
		t.Fatalf("encoder accounting: %d frames %d bytes, want 4 frames %d bytes", enc.frames, enc.bytesOut, buf.Len())
	}

	dec := newFrameDec(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	ft, body, err := dec.next()
	if err != nil || ft != frameHello {
		t.Fatalf("frame 1: type %#x err %v", ft, err)
	}
	r := wireBuf{b: body}
	if got, err := r.lenBytes(); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("hello body did not round-trip (len %d, err %v)", len(got), err)
	}
	ft, body, err = dec.next()
	if err != nil || ft != frameReady {
		t.Fatalf("frame 2: type %#x err %v", ft, err)
	}
	r = wireBuf{b: body}
	if v, err := r.uvarint(); err != nil || v != wireVersion || len(r.b) != 0 {
		t.Fatalf("ready body: version %d, %d bytes left, err %v", v, len(r.b), err)
	}
	ft, body, err = dec.next()
	if err != nil || ft != frameResult {
		t.Fatalf("frame 3: type %#x err %v", ft, err)
	}
	r = wireBuf{b: body}
	if id, err := r.intField(); err != nil || id != 9 {
		t.Fatalf("result id: %d err %v", id, err)
	}
	var got []uint64
	if err := decodeResultWords(&r, len(words), func(j int, w uint64) { got = append(got, w) }); err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d: %d, want %d", i, got[i], words[i])
		}
	}
	if ft, body, err = dec.next(); err != nil || ft != frameDone || len(body) != 0 {
		t.Fatalf("frame 4: type %#x body %d err %v", ft, len(body), err)
	}
	if dec.frames != 4 || dec.bytesIn != uint64(buf.Len()) {
		t.Fatalf("decoder accounting: %d frames %d bytes, want 4 frames %d bytes", dec.frames, dec.bytesIn, buf.Len())
	}
}

// TestWireDecoderRejects pins the decoder's failure modes: every
// malformed stream must error, never panic, and a forged length prefix
// must not commit the claimed allocation.
func TestWireDecoderRejects(t *testing.T) {
	frame := func(payload []byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(payload)))
		return append(b, payload...)
	}
	cases := map[string][]byte{
		"empty payload":      frame(nil),
		"oversized length":   binary.AppendUvarint(nil, wireMaxFrame+1),
		"forged 16MiB claim": binary.AppendUvarint(nil, wireMaxFrame), // then EOF
		"truncated length":   {0x85},
		"truncated payload":  frame([]byte{frameLease, 0, 1, 2})[:3],
	}
	for name, in := range cases {
		dec := newFrameDec(bufio.NewReader(bytes.NewReader(in)))
		if _, _, err := dec.next(); err == nil {
			t.Errorf("%s: decoder accepted malformed input", name)
		}
		if cap(dec.payload) > 2*wireFillChunk {
			t.Errorf("%s: decoder committed %d bytes for a hostile length", name, cap(dec.payload))
		}
	}
}

// TestWireResultCountMismatch pins the count validation that replaces
// the dropped (ui, lo, hi) echo: a result whose word count disagrees
// with the granted lease errors out.
func TestWireResultCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := newFrameEnc(&buf)
	enc.begin(frameResult)
	enc.uvarint(3)
	enc.appendResultWords([]uint64{1, 2, 3})
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	dec := newFrameDec(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	_, body, err := dec.next()
	if err != nil {
		t.Fatal(err)
	}
	r := wireBuf{b: body}
	if _, err := r.intField(); err != nil {
		t.Fatal(err)
	}
	if err := decodeResultWords(&r, 5, func(int, uint64) {}); err == nil {
		t.Fatal("decodeResultWords accepted 3 words against a 5-set lease")
	}
}

// marginalBytesPerLease isolates the wire cost of one lease round-trip
// by differencing two runs of the same campaign at different lease
// sizes: the handshake (per-run) and the verdict words (per-set,
// constant across runs) cancel, leaving the per-lease framing — the
// quantity the codec actually changes.
func marginalBytesPerLease(t *testing.T, cfg CampaignConfig, procs int) float64 {
	t.Helper()
	bytesAt := func(leaseSets int) (uint64, int) {
		_, rep, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{LeaseSets: leaseSets})
		if err != nil {
			t.Fatalf("leaseSets=%d: %v", leaseSets, err)
		}
		return rep.BytesIn + rep.BytesOut, rep.Leases
	}
	bSmall, lSmall := bytesAt(1)
	bBig, lBig := bytesAt(cfg.SetsPerPoint)
	if lSmall <= lBig {
		t.Fatalf("lease counts %d vs %d cannot difference", lSmall, lBig)
	}
	return float64(bSmall-bBig) / float64(lSmall-lBig)
}

// maxBytesPerLease is the wire budget of one lease round-trip: a lease
// frame and its result frame, ids and bitmap included.
const maxBytesPerLease = 16

// TestDistCampaignBinaryJSONDifferential is the codec's differential
// contract: across lease sizes × worker counts, the frame protocol
// merges to the same bytes as the single-process run — and spends at
// most maxBytesPerLease wire bytes per lease round-trip doing it.
func TestDistCampaignBinaryJSONDifferential(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	for _, procs := range []int{1, 3} {
		for _, leaseSets := range []int{1, 7, 50} {
			got, _, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{LeaseSets: leaseSets})
			if err != nil {
				t.Fatalf("procs=%d leaseSets=%d: %v", procs, leaseSets, err)
			}
			if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
				t.Fatalf("procs=%d leaseSets=%d diverged from single-process bytes", procs, leaseSets)
			}
		}
	}
	if per := marginalBytesPerLease(t, cfg, 1); per > maxBytesPerLease {
		t.Errorf("a lease round-trip costs %.1f wire bytes, want <= %d", per, maxBytesPerLease)
	}
}

// TestDistCampaignBinaryJSONWorkerLoss runs the kill-a-worker axis of
// the differential: the run must survive losing a worker mid-run and
// still merge identically.
func TestDistCampaignBinaryJSONWorkerLoss(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns := workerLossConns(3) // ready + two results, then dead
	got, rep, err := DistCampaign(cfg, conns, DistOptions{LeaseSets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if gotB, wantB := resultBytes(t, got), resultBytes(t, want); string(gotB) != string(wantB) {
		t.Fatal("result after worker loss diverged from single-process bytes")
	}
	if rep.WorkerFailures != 1 || rep.Reassigned < 1 {
		t.Fatalf("report %+v: want 1 failure and >= 1 reassignment", rep)
	}
}

// TestServeWorkerRejectsBadPreamble pins the worker's handshake guard:
// a stream with a wire version the worker does not speak (including
// v1, which framed with a flags byte), a JSON hello from the retired
// line protocol, or garbage after the magic errors out at once. The
// coordinator side stays open, so a worker that kept reading instead
// of rejecting would block.
func TestServeWorkerRejectsBadPreamble(t *testing.T) {
	for name, in := range map[string]string{
		"version 0":  "\xf7\x00",
		"version 1":  "\xf7\x01\x0b\x01\x00\x08{\"seed\":1}",
		"version 3":  "\xf7\x03",
		"json hello": `{"t":"hello","config":{}}` + "\n",
		"bad magic":  "\x00\x02",
	} {
		c, w := net.Pipe()
		go func() {
			c.Write([]byte(in))
			io.Copy(io.Discard, c) // hold the stream open; take any reply
		}()
		errc := make(chan error, 1)
		go func() { errc <- serveWorker(w) }()
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("%s: worker accepted the preamble", name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: worker blocked instead of rejecting the preamble", name)
		}
		c.Close()
		w.Close()
	}
}

// FuzzDistFrame feeds arbitrary bytes to the frame decoder and the
// result-word decoder: they must reject malformed input with an error
// — never panic, never commit an allocation sized by a forged length.
func FuzzDistFrame(f *testing.F) {
	var seed bytes.Buffer
	enc := newFrameEnc(&seed)
	enc.begin(frameLease)
	enc.uvarint(3)
	enc.uvarint(1)
	enc.uvarint(0)
	enc.uvarint(64)
	enc.flush()
	enc.begin(frameResult)
	enc.uvarint(3)
	enc.appendResultWords([]uint64{5, 5, 0, 1 << 60})
	enc.flush()
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(binary.AppendUvarint(nil, wireMaxFrame))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newFrameDec(bufio.NewReader(bytes.NewReader(data)))
		for {
			ft, body, err := dec.next()
			if err != nil {
				break
			}
			if cap(dec.payload) > len(data)+2*wireFillChunk {
				t.Fatalf("decoder committed %d bytes from a %d-byte input", cap(dec.payload), len(data))
			}
			r := wireBuf{b: body}
			switch ft {
			case frameLease, frameResult:
				r.leaseHeader()
			case frameReady, frameHello, frameError:
				r.uvarint()
				r.lenBytes()
			}
			// Result-word decoding against a small fixed grant: hostile
			// counts must error on the count check, not allocate.
			r = wireBuf{b: body}
			if _, err := r.intField(); err == nil {
				decodeResultWords(&r, 8, func(int, uint64) {})
			}
		}
	})
}
