package expt

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
)

// resultBytes serializes a CampaignResult for byte-level comparison —
// the form the merge proof is stated in: distributed and single-process
// runs must serialize identically.
func resultBytes(t testing.TB, res CampaignResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedCampaignMatchesSingleProcess is the merge proof's
// executable form: the campaign sharded across 2 and 3 protocol
// workers serializes byte-identically to the single-process Campaign,
// and the report accounts for every lease with no losses.
func TestDistributedCampaignMatchesSingleProcess(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	for _, procs := range []int{2, 3} {
		got, rep, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{LeaseSets: 5})
		if err != nil {
			t.Fatalf("%d workers: %v", procs, err)
		}
		if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
			t.Fatalf("%d workers: distributed result diverged from single-process bytes\n got %s\nwant %s", procs, gotB, wantB)
		}
		if rep.Workers != procs || rep.WorkerFailures != 0 || rep.Reassigned != 0 {
			t.Fatalf("%d workers: unexpected report %+v", procs, rep)
		}
		wantLeases := len(cfg.Utils) * ((cfg.SetsPerPoint + 4) / 5)
		if rep.Leases != wantLeases {
			t.Fatalf("%d workers: %d leases granted, want %d", procs, rep.Leases, wantLeases)
		}
	}
}

// killAfter fails a worker's transport after a fixed number of writes.
// The worker issues exactly one Write per buffered-writer flush, one
// per frame on small leases, so the budget is a message count: 1
// covers the ready handshake, each further write one lease result.
type killAfter struct {
	net.Conn
	writes atomic.Int32
	dead   chan struct{} // closed once the budget is spent
	once   sync.Once
}

func (k *killAfter) Write(b []byte) (int, error) {
	if k.writes.Add(-1) < 0 {
		k.Conn.Close()
		k.once.Do(func() { close(k.dead) })
		return 0, errors.New("worker killed")
	}
	return k.Conn.Write(b)
}

// holdUntil holds a worker's writes, handshake included, until release
// is closed.
type holdUntil struct {
	net.Conn
	release <-chan struct{}
}

func (h holdUntil) Write(b []byte) (int, error) {
	<-h.release
	return h.Conn.Write(b)
}

// workerLossConns returns the coordinator ends of two pipe workers: a
// survivor, and a doomed worker killed after `writes` writes. The
// survivor's writes are held until the doomed worker has died, so the
// loss always happens mid-run; unheld, a fast survivor could drain
// every lease before the doomed worker reached its last write.
func workerLossConns(writes int32) []io.ReadWriteCloser {
	doomed := &killAfter{dead: make(chan struct{})}
	doomed.writes.Store(writes)
	c0, w0 := net.Pipe()
	go func() {
		defer w0.Close()
		serveWorker(holdUntil{Conn: w0, release: doomed.dead})
	}()
	c1, w1 := net.Pipe()
	doomed.Conn = w1
	go func() {
		defer w1.Close()
		serveWorker(doomed)
	}()
	return []io.ReadWriteCloser{c0, c1}
}

// TestDistributedCampaignWorkerLoss kills one of two workers after it
// has returned two lease results: the coordinator must reassign its
// outstanding lease to the survivor and still merge to the exact
// single-process bytes.
func TestDistributedCampaignWorkerLoss(t *testing.T) {
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
		t.Fatalf("result after worker loss diverged from single-process bytes\n got %s\nwant %s", gotB, wantB)
	}
	if rep.WorkerFailures != 1 {
		t.Fatalf("WorkerFailures = %d, want 1 (%+v)", rep.WorkerFailures, rep)
	}
	if rep.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1 (%+v)", rep.Reassigned, rep)
	}
}

// wireHandshake plays a worker's side of the handshake on
// (br, w): it reads the preamble and hello and answers ready.
func wireHandshake(br *bufio.Reader, w io.Writer) (*frameDec, *frameEnc, bool) {
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, nil, false
	}
	dec := newFrameDec(br)
	if t, _, err := dec.next(); err != nil || t != frameHello {
		return nil, nil, false
	}
	enc := newFrameEnc(w)
	enc.begin(frameReady)
	enc.uvarint(wireVersion)
	return dec, enc, enc.flush() == nil
}

// corruptWorker handshakes and answers its
// first lease with a one-word result, which a lease of more than one
// set cannot decode, then drains its connection until closed.
func corruptWorker() io.ReadWriteCloser {
	c, w := net.Pipe()
	go func() {
		defer w.Close()
		br := bufio.NewReader(w)
		dec, enc, ok := wireHandshake(br, w)
		if !ok {
			return
		}
		t, body, err := dec.next()
		if err != nil || t != frameLease {
			return
		}
		r := wireBuf{b: body}
		id, _, _, _, err := r.leaseHeader()
		if err != nil {
			return
		}
		enc.begin(frameResult)
		enc.uvarint(uint64(id))
		enc.appendResultWords([]uint64{0})
		if enc.flush() != nil {
			return
		}
		io.Copy(io.Discard, br)
	}()
	return c
}

// TestDistributedCampaignCorruptResult pairs a worker whose first
// result frame does not decode with a healthy one: the coordinator
// must requeue the lease whose result it could not decode, as well as
// the rest of that worker's window, and still merge the exact
// single-process bytes. A lease dropped on a failed decode never
// completes, so the run hangs; the test's timeout turns that into a
// failure.
func TestDistributedCampaignCorruptResult(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The healthy worker starts 50ms late so the corrupt one holds
	// leases first: without the delay a fast survivor can drain the
	// whole table before the corrupt worker is granted a lease.
	c, w := net.Pipe()
	go func() {
		defer w.Close()
		time.Sleep(50 * time.Millisecond)
		serveWorker(w)
	}()
	type outcome struct {
		res CampaignResult
		rep DistReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, rep, err := DistCampaign(cfg, []io.ReadWriteCloser{corruptWorker(), c}, DistOptions{LeaseSets: 5})
		done <- outcome{res, rep, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("DistCampaign hung after a corrupt result frame")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if gotB, wantB := resultBytes(t, o.res), resultBytes(t, want); string(gotB) != string(wantB) {
		t.Fatal("result after a corrupt result frame diverged from single-process bytes")
	}
	if o.rep.WorkerFailures != 1 || o.rep.Reassigned < 1 {
		t.Fatalf("report %+v: want 1 worker failure and >= 1 reassignment", o.rep)
	}
}

// TestDistributedCampaignAllWorkersFail pins the run-lost error: when
// every connection is dead on arrival the coordinator reports failure
// instead of returning a silent zero result, and the
// expt.dist.worker_failures counter counts each lost worker once.
func TestDistributedCampaignAllWorkersFail(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	cfg := smallCampaign()
	conns := PipeWorkers(2)
	for _, c := range conns {
		c.Close()
	}
	_, rep, err := DistCampaign(cfg, conns, DistOptions{})
	if err == nil {
		t.Fatal("DistCampaign succeeded with every worker dead")
	}
	if rep.WorkerFailures != 2 {
		t.Fatalf("WorkerFailures = %d, want 2", rep.WorkerFailures)
	}
	if got := reg.Counter("expt.dist.worker_failures").Value(); got != uint64(rep.WorkerFailures) {
		t.Fatalf("expt.dist.worker_failures = %d, want the report's %d", got, rep.WorkerFailures)
	}
}

// TestDistCampaignInvariance sweeps the scheduling knobs that must all
// be invisible in the output: worker-process count, lease size and the
// in-worker pool width FTMC_WORKERS. Every combination must serialize
// to the same bytes as the plain single-process campaign.
func TestDistCampaignInvariance(t *testing.T) {
	cfg := smallCampaign()
	want, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantB := resultBytes(t, want)
	opts := []DistOptions{
		{}, // the defaults, as the campaign-dist benchmark runs them
		{LeaseSets: 1},
		{LeaseSets: 3},
		{LeaseSets: 5},
		{LeaseSets: 1 << 20},
	}
	for _, env := range []string{"1", "2"} {
		t.Setenv("FTMC_WORKERS", env)
		for _, procs := range []int{1, 2, 3} {
			for oi, opt := range opts {
				got, _, err := DistCampaign(cfg, PipeWorkers(procs), opt)
				if err != nil {
					t.Fatalf("FTMC_WORKERS=%s procs=%d opts[%d]=%+v: %v", env, procs, oi, opt, err)
				}
				if gotB := resultBytes(t, got); string(gotB) != string(wantB) {
					t.Fatalf("FTMC_WORKERS=%s procs=%d opts[%d]=%+v changed the bytes", env, procs, oi, opt)
				}
			}
		}
	}
}

// TestDistCampaignRejectsWideConfig pins the wire-format guard: a
// cross-product beyond 31 configurations cannot pack into the per-set
// result word and must be rejected up front, not truncated.
func TestDistCampaignRejectsWideConfig(t *testing.T) {
	cfg := smallCampaign()
	for len(cfg.Panels)*len(cfg.FailProbs) <= maxDistConfigs {
		cfg.Panels = append(cfg.Panels, cfg.Panels[0])
	}
	_, _, err := DistCampaign(cfg, PipeWorkers(1), DistOptions{})
	if err == nil {
		t.Fatal("DistCampaign accepted a cross-product too wide for the wire format")
	}
}

// benchDistCampaign measures campaign throughput through n protocol
// workers. FTMC_WORKERS=1 makes each in-process worker single-threaded,
// so the 1 → 2 → 4 scaling isolates the protocol's contribution the
// way separate single-threaded processes would.
func benchDistCampaign(b *testing.B, procs int) {
	b.Setenv("FTMC_WORKERS", "1")
	cfg := PaperCampaign(8, 1)
	sets := int64(len(cfg.Utils) * cfg.SetsPerPoint)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DistCampaign(cfg, PipeWorkers(procs), DistOptions{LeaseSets: 16}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sets*int64(b.N))/b.Elapsed().Seconds(), "sets/s")
}

func BenchmarkDistCampaign1(b *testing.B) { benchDistCampaign(b, 1) }
func BenchmarkDistCampaign2(b *testing.B) { benchDistCampaign(b, 2) }
func BenchmarkDistCampaign4(b *testing.B) { benchDistCampaign(b, 4) }
