package expt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the framing layer of the distributed campaign protocol
// (wire v2):
//
//	stream   = preamble frame*
//	preamble = 0xF7 version            (coordinator → worker only)
//	frame    = uvarint(len(payload)) payload
//	payload  = type body
//
// Both sides speak exactly one version. The worker rejects a preamble
// that offers any other, and the coordinator rejects a ready frame
// that answers with any other, so a peer from another version fails at
// the handshake instead of misreading frames.
//
// Frame bodies are varint-packed (binary.Uvarint):
//
//	hello  : uvarint(len) json(CampaignConfig)
//	ready  : uvarint(version)
//	lease  : uvarint(id) uvarint(ui) uvarint(lo) uvarint(hi)
//	result : uvarint(id) uvarint(n) token*
//	token  : uvarint(delta ≠ 0) | 0x00 uvarint(zero-run length)
//	error  : uvarint(id) uvarint(len) bytes(message)
//	done   : empty
//
// A result's verdict words travel as a varint-delta bitmap:
// delta_i = w_i XOR w_{i-1} (w_{-1} = 0). Acceptance flips rarely
// along a lease's contiguous set range — most points are deep in the
// all-accept or all-reject regime — so most deltas are 0, and runs of
// zero deltas are elided into a single two-byte token (a literal zero
// never appears as a delta, which frees 0x00 as the run marker): a
// lease whose sets all agree costs two bytes of verdicts no matter how
// many sets it spans. A result carries only its lease id: the
// coordinator's grant record supplies (ui, lo, hi), and the mandatory
// word count pins the result to the granted size, so echoing the range
// would spend bytes to say nothing.
//
// Every multi-byte read is bounds-checked and every length field is
// capped (wireMaxFrame, chunked frame fill) before memory is
// committed, so truncated, corrupt or adversarial-length inputs
// error out without panicking or over-allocating — the contract
// FuzzDistFrame exercises.

const (
	// wireMagic opens a wire-protocol stream.
	wireMagic = 0xF7
	// wireVersion is the frame version both sides must speak.
	wireVersion = 2

	frameHello  = 0x01
	frameReady  = 0x02
	frameLease  = 0x03
	frameResult = 0x04
	frameError  = 0x05
	frameDone   = 0x06

	// wireMaxFrame caps one frame's payload: far above any real lease —
	// a 10^6-set result is ~1 MiB worst-case — but low enough that a
	// corrupt length cannot commit unbounded memory.
	wireMaxFrame = 16 << 20
	// wireFillChunk is the step the decoder grows a frame buffer by
	// while reading, so a forged length prefix on a truncated stream
	// over-allocates by at most one chunk instead of the full claim.
	wireFillChunk = 64 << 10
)

// errFrameTooBig rejects length fields beyond wireMaxFrame.
var errFrameTooBig = fmt.Errorf("expt: wire frame exceeds %d bytes", wireMaxFrame)

// wireBufSize is the bufio buffer on each side of a wire connection:
// large enough to coalesce a window refill or a batch of results into
// one transport handoff.
const wireBufSize = 32 << 10

// frameEnc encodes frames onto w through one reused buffer: a flush
// writes the length prefix and payload with a single Write, so a
// buffered or rendezvous transport (net.Pipe) sees one handoff per
// frame. The zero cost of reuse is the point: steady-state encoding
// allocates nothing.
type frameEnc struct {
	w        io.Writer
	buf      []byte // frame under construction: 4-byte len, type, body
	bytesOut uint64
	frames   uint64
}

func newFrameEnc(w io.Writer) *frameEnc {
	return &frameEnc{w: w, buf: make([]byte, 0, 512)}
}

// begin starts a frame of the given type; body writers append.
func (e *frameEnc) begin(t byte) {
	e.buf = append(e.buf[:0], 0, 0, 0, 0, t)
}

func (e *frameEnc) uvarint(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *frameEnc) bytes(b []byte)    { e.buf = append(e.buf, b...) }
func (e *frameEnc) lenBytes(b []byte) { e.uvarint(uint64(len(b))); e.bytes(b) }

// flush finishes the frame: stamps the varint length prefix into the
// tail of the 4-byte reservation and writes the frame in one call. A
// varint prefix costs one byte on the tiny frames that dominate lease
// traffic, where a fixed uint32 would be a third of the frame.
func (e *frameEnc) flush() error {
	payload := e.buf[4:]
	if len(payload) > wireMaxFrame {
		return errFrameTooBig
	}
	var pfx [4]byte // 16 MiB needs at most 4 varint bytes
	pn := binary.PutUvarint(pfx[:], uint64(len(payload)))
	start := 4 - pn
	copy(e.buf[start:], pfx[:pn])
	n, err := e.w.Write(e.buf[start:])
	e.bytesOut += uint64(n)
	e.frames++
	return err
}

// frameDec decodes frames from r into a reused buffer. next returns
// the frame type and its body, valid until the following next call.
type frameDec struct {
	r       *bufio.Reader
	payload []byte
	bytesIn uint64
	frames  uint64
}

func newFrameDec(r *bufio.Reader) *frameDec { return &frameDec{r: r} }

// fill reads exactly n payload bytes into the reused buffer, growing
// it one wireFillChunk-sized read at a time: capacity is committed
// only after the stream actually delivered the previous chunk, so a
// forged length prefix on a truncated stream over-allocates by at
// most one chunk (plus append's doubling slack), never the full
// claimed size.
func (d *frameDec) fill(n int) ([]byte, error) {
	buf := d.payload[:0]
	for len(buf) < n {
		step := n - len(buf)
		if step > wireFillChunk {
			step = wireFillChunk
		}
		start := len(buf)
		for cap(buf) < start+step {
			buf = append(buf[:cap(buf)], 0)
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			d.payload = buf[:0]
			return nil, err
		}
	}
	d.payload = buf
	return buf, nil
}

// next reads one frame. Malformed input — short reads, oversized or
// empty lengths — returns an error; next never panics on hostile
// bytes.
func (d *frameDec) next() (t byte, body []byte, err error) {
	n64, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, nil, err
	}
	if n64 > wireMaxFrame {
		return 0, nil, errFrameTooBig
	}
	n := int(n64)
	if n < 1 {
		return 0, nil, errors.New("expt: empty wire frame has no type byte")
	}
	payload, err := d.fill(n)
	if err != nil {
		return 0, nil, fmt.Errorf("expt: truncated wire frame: %w", err)
	}
	d.bytesIn += uint64(uvarintLen(n64)) + uint64(n)
	d.frames++
	return payload[0], payload[1:], nil
}

// wireBuf is a cursor over a frame body for varint-packed fields.
type wireBuf struct{ b []byte }

var errWireTruncated = errors.New("expt: truncated wire frame body")

func (r *wireBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errWireTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// intField reads a uvarint that must fit a non-negative int (grid
// indexes, lease ids).
func (r *wireBuf) intField() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("expt: wire integer field %d overflows int", v)
	}
	return int(v), nil
}

// lenBytes reads a uvarint length and that many bytes, validating the
// length against what the body actually holds before slicing.
func (r *wireBuf) lenBytes() ([]byte, error) {
	n, err := r.intField()
	if err != nil {
		return nil, err
	}
	if n > len(r.b) {
		return nil, errWireTruncated
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b, nil
}

// leaseHeader is the (id, ui, lo, hi) prefix shared by lease and
// result frames.
func (r *wireBuf) leaseHeader() (id, ui, lo, hi int, err error) {
	if id, err = r.intField(); err != nil {
		return
	}
	if ui, err = r.intField(); err != nil {
		return
	}
	if lo, err = r.intField(); err != nil {
		return
	}
	hi, err = r.intField()
	return
}

// uvarintLen is the encoded size of v (for byte accounting).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendResultWords appends the varint-delta bitmap of words to the
// open frame of e: non-zero deltas as plain uvarints, runs of zero
// deltas elided into a 0x00 marker plus run length.
func (e *frameEnc) appendResultWords(words []uint64) {
	e.uvarint(uint64(len(words)))
	var prev uint64
	zeros := uint64(0)
	flushZeros := func() {
		if zeros > 0 {
			e.buf = append(e.buf, 0)
			e.uvarint(zeros)
			zeros = 0
		}
	}
	for _, w := range words {
		d := w ^ prev
		prev = w
		if d == 0 {
			zeros++
			continue
		}
		flushZeros()
		e.uvarint(d)
	}
	flushZeros()
}

// decodeResultWords streams the n delta-decoded verdict words of a
// result body into emit(j, word). The caller fixes n from the lease it
// granted, so a hostile count can never size an allocation: the body
// must decode to exactly n words or the decode errors (run lengths are
// bounds-checked against the words still owed).
func decodeResultWords(r *wireBuf, n int, emit func(j int, w uint64)) error {
	cnt, err := r.uvarint()
	if err != nil {
		return err
	}
	if cnt != uint64(n) {
		return fmt.Errorf("expt: result carries %d words, want %d", cnt, n)
	}
	var prev uint64
	for j := 0; j < n; {
		delta, err := r.uvarint()
		if err != nil {
			return err
		}
		if delta == 0 {
			run, err := r.uvarint()
			if err != nil {
				return err
			}
			if run == 0 || run > uint64(n-j) {
				return fmt.Errorf("expt: zero-run of %d words with %d owed", run, n-j)
			}
			for k := uint64(0); k < run; k++ {
				emit(j, prev)
				j++
			}
			continue
		}
		prev ^= delta
		emit(j, prev)
		j++
	}
	if len(r.b) != 0 {
		return fmt.Errorf("expt: %d trailing bytes after result words", len(r.b))
	}
	return nil
}
