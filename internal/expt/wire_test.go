package expt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// TestWireFrameRoundTrip drives the codec over every frame shape:
// small incompressible bodies, large compressible ones (which must
// come back byte-identical through the DEFLATE path), and back-to-back
// frames on one stream.
func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := newFrameEnc(&buf)

	small := []byte("hello")
	big := bytes.Repeat([]byte("fault-tolerant mixed criticality "), 64)
	words := []uint64{0, 0, 7, 7, 7, 1 << 62, 0, 42}

	enc.begin(frameHello)
	enc.lenBytes(small)
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	enc.begin(frameReady)
	enc.uvarint(wireV1)
	enc.lenBytes(big)
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
	if got, err := r.lenBytes(); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("hello body: %q err %v", got, err)
	}
	ft, body, err = dec.next()
	if err != nil || ft != frameReady {
		t.Fatalf("frame 2: type %#x err %v", ft, err)
	}
	r = wireBuf{b: body}
	if v, err := r.uvarint(); err != nil || v != wireV1 {
		t.Fatalf("ready version: %d err %v", v, err)
	}
	if got, err := r.lenBytes(); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("ready body did not round-trip through compression (len %d, err %v)", len(got), err)
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
		"one-byte payload":   frame([]byte{frameDone}),
		"oversized length":   binary.AppendUvarint(nil, wireMaxFrame+1),
		"forged 16MiB claim": binary.AppendUvarint(nil, wireMaxFrame), // then EOF
		"truncated length":   {0x85},
		"truncated payload":  frame([]byte{frameLease, 0, 1, 2})[:3],
		"unknown flags":      frame([]byte{frameLease, 0x80}),
		"corrupt deflate":    frame([]byte{frameHello, flagDeflate, 0xde, 0xad, 0xbe, 0xef}),
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
// for a protocol by differencing two runs of the same campaign at
// different lease sizes: the handshake (per-run) and the verdict words
// (per-set, constant across runs) cancel, leaving the per-lease
// framing — the quantity the codec actually changes.
func marginalBytesPerLease(t *testing.T, cfg CampaignConfig, proto WireProto, procs int) float64 {
	t.Helper()
	bytesAt := func(leaseSets int) (uint64, int) {
		_, rep, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{Proto: proto, LeaseSets: leaseSets})
		if err != nil {
			t.Fatalf("%s leaseSets=%d: %v", proto, leaseSets, err)
		}
		return rep.BytesIn + rep.BytesOut, rep.Leases
	}
	bSmall, lSmall := bytesAt(1)
	bBig, lBig := bytesAt(cfg.SetsPerPoint)
	if lSmall <= lBig {
		t.Fatalf("%s: lease counts %d vs %d cannot difference", proto, lSmall, lBig)
	}
	return float64(bSmall-bBig) / float64(lSmall-lBig)
}

// TestDistCampaignBinaryJSONDifferential is the codec's differential
// contract: across lease sizes × worker counts, the binary and legacy
// JSON protocols merge to the same bytes as the single-process run —
// and the binary protocol spends at least 5x fewer wire bytes per
// lease round-trip doing it.
func TestDistCampaignBinaryJSONDifferential(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	for _, procs := range []int{1, 3} {
		for _, leaseSets := range []int{1, 7, 50} {
			for _, proto := range []WireProto{WireJSON, WireBinary} {
				got, _, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{Proto: proto, LeaseSets: leaseSets})
				if err != nil {
					t.Fatalf("%s procs=%d leaseSets=%d: %v", proto, procs, leaseSets, err)
				}
				if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
					t.Fatalf("%s procs=%d leaseSets=%d diverged from single-process bytes", proto, procs, leaseSets)
				}
			}
		}
	}
	jsonPer := marginalBytesPerLease(t, cfg, WireJSON, 1)
	binPer := marginalBytesPerLease(t, cfg, WireBinary, 1)
	if binPer*5 > jsonPer {
		t.Errorf("binary spends %.1f bytes per lease round-trip vs JSON's %.1f — less than the 5x reduction target", binPer, jsonPer)
	}
}

// TestDistCampaignBinaryJSONWorkerLoss runs the kill-a-worker axis of
// the differential: both protocols must survive losing a worker
// mid-run and still merge identically.
func TestDistCampaignBinaryJSONWorkerLoss(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	for _, proto := range []WireProto{WireJSON, WireBinary} {
		conns := workerLossConns(3) // ready + two results, then dead
		got, rep, err := DistCampaign(cfg, conns, DistOptions{Proto: proto, LeaseSets: 5})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
			t.Fatalf("%s: result after worker loss diverged from single-process bytes", proto)
		}
		if rep.WorkerFailures != 1 || rep.Reassigned < 1 {
			t.Fatalf("%s: report %+v: want 1 failure and >= 1 reassignment", proto, rep)
		}
	}
}

// TestServeWorkerRejectsBadPreamble pins the worker's handshake guard:
// a binary-looking stream with a version the worker cannot accept, or
// garbage after the magic, errors out instead of wedging.
func TestServeWorkerRejectsBadPreamble(t *testing.T) {
	err := ServeWorker(struct {
		io.Reader
		io.Writer
	}{strings.NewReader("\xf7\x00"), io.Discard})
	if err == nil {
		t.Fatal("worker accepted wire version 0")
	}
}

// TestLeaseSizer pins the adaptive sizing policy: no observations or
// no target gives the fixed base; observed rates steer toward the
// target latency; the min/max clamps hold at the extremes.
func TestLeaseSizer(t *testing.T) {
	s := leaseSizer{base: 64, min: 4, max: 512, target: 1e6} // 1ms target
	if got := s.size(); got != 64 {
		t.Fatalf("unobserved sizer granted %d, want base 64", got)
	}
	s.observe(100, 1e6) // 10µs/set steady → 100 sets per ms
	if got := s.size(); got != 100 {
		t.Fatalf("sizer granted %d, want 100 at 10µs/set", got)
	}
	for i := 0; i < 20; i++ {
		s.observe(1, 1e6) // 1ms/set: a very slow worker
	}
	if got := s.size(); got != s.min {
		t.Fatalf("sizer granted %d for a slow worker, want the min clamp %d", got, s.min)
	}
	for i := 0; i < 40; i++ {
		s.observe(1000, 1e3) // 1ns/set: impossibly fast
	}
	if got := s.size(); got != s.max {
		t.Fatalf("sizer granted %d for a fast worker, want the max clamp %d", got, s.max)
	}
	fixed := leaseSizer{base: 16}
	fixed.observe(100, 1e6)
	if got := fixed.size(); got != 16 {
		t.Fatalf("target-less sizer granted %d, want the fixed base 16", got)
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
	enc.begin(frameReady)
	enc.uvarint(1)
	enc.lenBytes(bytes.Repeat([]byte("{}"), 300)) // compressible: exercises deflate
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
