package expt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"

	"repro/internal/obsv"
)

// ServeWorker is the worker side of the distributed campaign protocol:
// it reads the coordinator's preamble and hello, answers ready with
// this process's manifest, and then evaluates leases until done (or
// EOF, which a coordinator that lost interest presents). The evaluation
// engine is the same campaignRunner the single-process Campaign uses —
// one evalRange call per lease over the in-process pool — so a worker's
// verdicts for a set are bit-identical to what Campaign would have
// computed for it, at any FTMC_WORKERS setting.
//
// A reader goroutine decodes incoming frames into a lease queue while
// the loop below evaluates and answers: the decode of lease k+1
// overlaps the evaluation of lease k, and the worker keeps reading
// while it writes, which the coordinator's sequential driver needs on
// a synchronous transport such as net.Pipe (pipeline.go says why).
//
// rw is typically the process's stdin/stdout (cmd/ftmc-worker) or a TCP
// connection. ServeWorker returns nil after done and the transport or
// protocol error otherwise; an evaluation error is reported to the
// coordinator as an error frame before returning.
func ServeWorker(rw io.ReadWriter) error {
	br := bufio.NewReaderSize(rw, wireBufSize)
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return fmt.Errorf("expt: worker handshake: %w", err)
	}
	if pre[0] != wireMagic {
		return fmt.Errorf("expt: worker handshake: bad preamble byte %#x, want %#x", pre[0], wireMagic)
	}
	if pre[1] != wireVersion {
		return fmt.Errorf("expt: worker handshake: coordinator speaks wire version %d, worker speaks %d", pre[1], wireVersion)
	}

	dec := newFrameDec(br)
	t, body, err := dec.next()
	if err != nil {
		return fmt.Errorf("expt: worker handshake: %w", err)
	}
	if t != frameHello {
		return fmt.Errorf("expt: worker handshake: got frame %#x, want hello", t)
	}
	hb := wireBuf{b: body}
	cfgJSON, err := hb.lenBytes()
	if err != nil {
		return fmt.Errorf("expt: worker handshake: %w", err)
	}
	var cfg CampaignConfig
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return fmt.Errorf("expt: worker handshake: %w", err)
	}

	bw := bufio.NewWriterSize(rw, wireBufSize)
	enc := newFrameEnc(bw)
	sendErr := func(id int, err error) {
		enc.begin(frameError)
		enc.uvarint(uint64(id))
		enc.lenBytes([]byte(err.Error()))
		if enc.flush() == nil {
			bw.Flush()
		}
	}

	if err := cfg.Validate(); err != nil {
		sendErr(0, err)
		return err
	}
	nCfg := len(cfg.Panels) * len(cfg.FailProbs)
	if nCfg > maxDistConfigs {
		err := fmt.Errorf("expt: %d configurations exceed the wire format's %d", nCfg, maxDistConfigs)
		sendErr(0, err)
		return err
	}
	manifest := obsv.NewManifest()
	manifest.Seed = cfg.Seed
	mb, err := json.Marshal(&manifest)
	if err != nil {
		return err
	}
	enc.begin(frameReady)
	enc.uvarint(wireVersion)
	enc.lenBytes(mb)
	if err := enc.flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Reader goroutine: frames off the transport into the lease queue.
	// The queue depth caps read-ahead at the coordinator's window.
	type item struct {
		l    lease
		done bool
		err  error
	}
	items := make(chan item, 16)
	go func() {
		defer close(items)
		for {
			t, body, err := dec.next()
			if err != nil {
				if err == io.EOF {
					err = fmt.Errorf("expt: coordinator hung up without done")
				}
				items <- item{err: err}
				return
			}
			switch t {
			case frameDone:
				items <- item{done: true}
				return
			case frameLease:
				r := wireBuf{b: body}
				id, ui, lo, hi, err := r.leaseHeader()
				if err == nil && len(r.b) != 0 {
					err = fmt.Errorf("expt: %d trailing bytes after lease header", len(r.b))
				}
				if err != nil {
					items <- item{err: err}
					return
				}
				items <- item{l: lease{id: id, ui: ui, lo: lo, hi: hi}}
			default:
				items <- item{err: fmt.Errorf("expt: worker got unexpected frame %#x", t)}
				return
			}
		}
	}()

	r := newCampaignRunner(&cfg)
	// If the loop below returns early (eval error, bad lease), keep the
	// reader goroutine from blocking on a full queue until the
	// coordinator hangs up: drain whatever it still sends.
	defer func() {
		go func() {
			for range items {
			}
		}()
	}()
	var out []verdict
	var packed []uint64
	for it := range items {
		if it.err != nil {
			return it.err
		}
		if it.done {
			return nil
		}
		l := it.l
		if err := checkLease(&cfg, l); err != nil {
			sendErr(l.id, err)
			return err
		}
		n := l.hi - l.lo
		if cap(out) < n*nCfg {
			out = make([]verdict, n*nCfg)
		}
		if cap(packed) < n {
			packed = make([]uint64, n)
		}
		out = out[:n*nCfg]
		packed = packed[:n]
		if err := r.evalRange(l.ui, l.lo, l.hi, out); err != nil {
			sendErr(l.id, err)
			return err
		}
		packVerdicts(out, packed, nCfg)
		enc.begin(frameResult)
		enc.uvarint(uint64(l.id))
		enc.appendResultWords(packed)
		if err := enc.flush(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// checkLease bounds a granted lease against the campaign grid.
func checkLease(cfg *CampaignConfig, l lease) error {
	if l.hi-l.lo <= 0 || l.lo < 0 || l.hi > cfg.SetsPerPoint || l.ui < 0 || l.ui >= len(cfg.Utils) {
		return fmt.Errorf("expt: lease %d out of range: ui=%d sets [%d, %d)", l.id, l.ui, l.lo, l.hi)
	}
	return nil
}

// packVerdicts packs one lease's verdicts into wire words: bit 2c the
// baseline verdict and bit 2c+1 the adapted verdict of configuration c.
func packVerdicts(out []verdict, packed []uint64, nCfg int) {
	for j := range packed {
		var w uint64
		for c := 0; c < nCfg; c++ {
			v := out[j*nCfg+c]
			if v.base {
				w |= 1 << (2 * uint(c))
			}
			if v.adapt {
				w |= 1 << (2*uint(c) + 1)
			}
		}
		packed[j] = w
	}
}

// PipeWorkers starts n in-process protocol workers over net.Pipe and
// returns the coordinator ends, ready to pass to DistCampaign. Each
// worker runs ServeWorker on its own goroutine and closes its end on
// return. In-process workers exercise the full wire protocol (framing,
// packing, merge) without subprocess or socket plumbing — the hermetic
// form the tests and benchmarks use; production scale-out uses
// StartWorkerProcs or AcceptWorkers instead.
func PipeWorkers(n int) []io.ReadWriteCloser {
	conns := make([]io.ReadWriteCloser, n)
	for i := range conns {
		c, w := net.Pipe()
		conns[i] = c
		go func(w net.Conn) {
			defer w.Close()
			ServeWorker(w) // errors surface coordinator-side as worker loss
		}(w)
	}
	return conns
}

// procConn adapts a subprocess's stdin/stdout pipes to the
// io.ReadWriteCloser DistCampaign drives; Close closes stdin (the
// worker's EOF), then kills and reaps the process.
type procConn struct {
	io.Reader // the worker's stdout
	in        io.WriteCloser
	cmd       *exec.Cmd
}

func (p *procConn) Write(b []byte) (int, error) { return p.in.Write(b) }

// Close runs only once the coordinator is done with the worker: its
// leases are merged or requeued. The kill frees a worker that ignores
// EOF, such as a hung one whose lease deadline fired, which Wait alone
// would block on until it exits by itself.
func (p *procConn) Close() error {
	p.in.Close()
	_ = p.cmd.Process.Kill() // fails only if the worker already exited
	return p.cmd.Wait()
}

// StartWorkerProcs launches n copies of the worker binary (built from
// cmd/ftmc-worker) speaking the protocol on their stdin/stdout, with
// stderr passed through to this process's stderr. The returned
// connections go straight to DistCampaign, which closes them —
// reaping the subprocesses — before returning.
func StartWorkerProcs(bin string, n int, args ...string) ([]io.ReadWriteCloser, error) {
	conns := make([]io.ReadWriteCloser, 0, n)
	fail := func(err error) ([]io.ReadWriteCloser, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return fail(err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("expt: starting worker %d: %w", i, err))
		}
		conns = append(conns, &procConn{Reader: out, in: in, cmd: cmd})
	}
	return conns, nil
}

// AcceptWorkers accepts n worker connections (cmd/ftmc-worker -connect)
// on the listener and returns them for DistCampaign. The caller keeps
// ownership of the listener.
func AcceptWorkers(ln net.Listener, n int) ([]io.ReadWriteCloser, error) {
	conns := make([]io.ReadWriteCloser, 0, n)
	for i := 0; i < n; i++ {
		c, err := ln.Accept()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}
