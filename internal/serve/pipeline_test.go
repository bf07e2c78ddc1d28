package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/task"
)

// serveCorpus draws n dual-criticality multisets (both classes
// populated) in generation order — the request streams of every
// pipeline test.
func serveCorpus(t testing.TB, seed int64, n int) [][]task.Task {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]task.Task, 0, n)
	for len(out) < n {
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5))
		if err != nil {
			continue
		}
		if len(s.ByClass(criticality.HI)) == 0 || len(s.ByClass(criticality.LO)) == 0 {
			continue
		}
		out = append(out, append([]task.Task(nil), s.Tasks()...))
	}
	return out
}

// directVerdict is the reference path the pipeline must reproduce
// byte-for-byte: canonicalize, build the set, run core.FTS directly
// with no shared or cached state.
func directVerdict(t testing.TB, req Request) Verdict {
	t.Helper()
	_, test, err := keyOf(req)
	if err != nil {
		t.Fatal(err)
	}
	h := task.HashTasksCanonical(req.Tasks)
	ts := append([]task.Task(nil), req.Tasks...)
	task.SortCanonical(ts)
	s, err := task.NewSet(ts)
	if err != nil {
		t.Fatal(err)
	}
	df := req.DF
	if req.Mode == safety.Kill {
		df = 0
	}
	res, err := core.FTS(s, core.Options{Safety: req.Safety, Mode: req.Mode, DF: df, Test: test})
	if err != nil {
		t.Fatal(err)
	}
	return verdictOf(res, h)
}

// sameVerdict compares two verdicts bit-for-bit (PFH bounds by float
// bit pattern), ignoring cache provenance.
func sameVerdict(a, b Verdict) bool {
	a.Cached, b.Cached = false, false
	return a == b &&
		math.Float64bits(a.PFHHI) == math.Float64bits(b.PFHHI) &&
		math.Float64bits(a.PFHLO) == math.Float64bits(b.PFHLO)
}

// permuted returns a deterministic shuffle of ts.
func permuted(ts []task.Task, seed int64) []task.Task {
	out := append([]task.Task(nil), ts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

// TestPipelineDifferential is the acceptance pin: every serving path —
// uncached, cached (including permuted resubmission) and concurrent
// misses — returns verdicts bit-identical to a direct core.FTS run,
// profiles and PFH bounds included, across kill and degrade modes and
// explicit schedulability tests.
func TestPipelineDifferential(t *testing.T) {
	tasksets := serveCorpus(t, 11, 24)
	cfg := safety.DefaultConfig()
	variants := []Request{
		{Safety: cfg, Mode: safety.Kill},
		{Safety: cfg, Mode: safety.Kill, Test: "edf"},
		{Safety: cfg, Mode: safety.Kill, Test: "dbf-tune"},
		{Safety: cfg, Mode: safety.Degrade, DF: 1.3},
		{Safety: cfg, Mode: safety.Degrade, DF: 1.5, Test: "edf-vd-degrade"},
	}
	reqs := make([]Request, 0, len(tasksets)*len(variants))
	for _, ts := range tasksets {
		for _, v := range variants {
			r := v
			r.Tasks = ts
			reqs = append(reqs, r)
		}
	}
	want := make([]Verdict, len(reqs))
	for i, r := range reqs {
		want[i] = directVerdict(t, r)
	}

	// Sequential pipeline: first pass misses, second (permuted) pass hits.
	p := NewPipeline(Options{})
	defer p.Close()
	for i, r := range reqs {
		got, err := p.Verdict(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Fatalf("request %d: first submission reported cached", i)
		}
		if !sameVerdict(got, want[i]) {
			t.Fatalf("request %d: uncached verdict diverged\n got %+v\nwant %+v", i, got, want[i])
		}
		perm := r
		perm.Tasks = permuted(r.Tasks, int64(i))
		again, err := p.Verdict(perm)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("request %d: permuted resubmission missed the cache", i)
		}
		if !sameVerdict(again, want[i]) {
			t.Fatalf("request %d: cached verdict diverged\n got %+v\nwant %+v", i, again, want[i])
		}
	}

	// Concurrent pipeline: every request a miss at once, analyses
	// contending for the slots and the shared adaptation shards; every
	// verdict must still match the reference.
	pb := NewPipeline(Options{})
	defer pb.Close()
	got := make([]Verdict, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = pb.Verdict(reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameVerdict(got[i], want[i]) {
			t.Fatalf("request %d: concurrent-miss verdict diverged\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// holdSlots takes every analysis slot of p, so admitted misses wait
// until the returned release is called: saturation becomes a
// constructed fact rather than a race against running analyses.
// release is idempotent; tests also defer it, so a failing test frees
// the slots before a deferred Close waits on the analyses behind them.
func holdSlots(p *Pipeline) (release func()) {
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < cap(p.slots); i++ {
				<-p.slots
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPipelineSingleFlight: concurrent submissions of one never-seen
// multiset — some permuted — share a single analysis, and every answer
// is bit-identical to the direct verdict. The pipeline admits one miss
// at a time, so a join that took an admission would be shed.
func TestPipelineSingleFlight(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)

	const n = 8
	ts := serveCorpus(t, 23, 1)[0]
	cfg := safety.DefaultConfig()
	want := directVerdict(t, Request{Tasks: ts, Safety: cfg, Mode: safety.Kill})
	p := NewPipeline(Options{QueueDepth: 1})
	defer p.Close()

	release := holdSlots(p)
	defer release()
	got := make([]Verdict, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tasks := ts
		if i%2 == 1 {
			tasks = permuted(ts, int64(i))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = p.Verdict(Request{Tasks: tasks, Safety: cfg, Mode: safety.Kill})
		}(i)
	}
	joins := reg.Counter("serve.singleflight.joins")
	waitFor(t, "every submitter to wait on one analysis", func() bool {
		return p.admitted.Load() == 1 && joins.Value() == n-1
	})
	release()
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		if !sameVerdict(got[i], want) {
			t.Fatalf("submitter %d: verdict diverged\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if a := reg.Counter("serve.analyses").Value(); a != 1 {
		t.Fatalf("%d analyses for %d identical submissions, want 1", a, n)
	}
	if _, misses, _, entries := p.CacheStats(); misses != 1 || entries != 1 {
		t.Fatalf("cache stats: %d misses, %d entries; want 1 and 1", misses, entries)
	}
	if v, err := p.Verdict(Request{Tasks: permuted(ts, 99), Safety: cfg, Mode: safety.Kill}); err != nil || !v.Cached {
		t.Fatalf("resubmission after the shared analysis: cached %v, err %v", v.Cached, err)
	}
}

// TestVerdictCacheFailedLeader: a claimed analysis that fails releases
// its followers with the error and leaves no entry behind, so the next
// request claims a fresh analysis.
func TestVerdictCacheFailedLeader(t *testing.T) {
	c := newVerdictCache(16)
	ts := serveCorpus(t, 29, 1)[0]
	h := task.HashTasksCanonical(ts)
	var k optKey
	admit := func() bool { return true }
	e, lead := c.claim(h, k, ts, admit)
	if !lead {
		t.Fatal("first claim did not lead")
	}
	_, f, hit := c.get(h, k, permuted(ts, 3))
	if hit || f != e {
		t.Fatalf("probe during the analysis: hit %v, entry %p; want the in-flight entry %p", hit, f, e)
	}
	boom := errors.New("boom")
	c.settle(e, Verdict{}, boom)
	f.wg.Wait()
	if f.err != boom {
		t.Fatalf("follower saw %v, want the leader's error", f.err)
	}
	if _, f, hit := c.get(h, k, ts); hit || f != nil {
		t.Fatalf("failed analysis left an entry behind (hit %v, entry %p)", hit, f)
	}
	if _, lead := c.claim(h, k, ts, admit); !lead {
		t.Fatal("claim after a failed analysis did not lead")
	}
	if _, misses, _, entries := c.stats(); misses != 2 || entries != 0 {
		t.Fatalf("cache stats: %d misses, %d settled entries; want 2 and 0", misses, entries)
	}
}

// TestPipelineVerdictCacheLRU: the verdict cache holds at most
// CacheEntries verdicts under churn (5·N + 40 distinct sets), counts
// evictions, and keeps the most recent insert resident — for bounds below,
// at and above any power of two.
func TestPipelineVerdictCacheLRU(t *testing.T) {
	cfg := safety.DefaultConfig()
	corpus := serveCorpus(t, 37, 5*100+40)
	for _, entries := range []int{1, 5, 17, 100} {
		t.Run(fmt.Sprint(entries), func(t *testing.T) {
			p := NewPipeline(Options{CacheEntries: entries})
			defer p.Close()
			tasksets := corpus[:5*entries+40]
			for _, ts := range tasksets {
				if _, err := p.Verdict(Request{Tasks: ts, Safety: cfg, Mode: safety.Kill}); err != nil {
					t.Fatal(err)
				}
			}
			hits, misses, evictions, live := p.CacheStats()
			if live > entries {
				t.Fatalf("cache holds %d entries, bound is %d", live, entries)
			}
			if evictions == 0 {
				t.Fatalf("overcommitted cache evicted nothing (hits %d misses %d)", hits, misses)
			}
			if misses < uint64(len(tasksets)) {
				t.Fatalf("expected >= %d misses, got %d", len(tasksets), misses)
			}
			last := Request{Tasks: permuted(tasksets[len(tasksets)-1], 99), Safety: cfg, Mode: safety.Kill}
			v, err := p.Verdict(last)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Cached {
				t.Fatal("most recently inserted verdict was not resident")
			}
		})
	}
}

// TestPipelineVerdictCacheConcurrent: eight goroutines share one
// 7-entry cache, first resubmitting the 7 resident sets (every answer a
// hit), then submitting 4 never-seen sets each (every answer a miss that
// evicts). The counters come out exact and the bound holds throughout.
func TestPipelineVerdictCacheConcurrent(t *testing.T) {
	const (
		entries    = 7
		goroutines = 8
		repeats    = 3
		distinct   = 4
	)
	cfg := safety.DefaultConfig()
	corpus := serveCorpus(t, 41, entries+goroutines*distinct)
	hot, fresh := corpus[:entries], corpus[entries:]
	p := NewPipeline(Options{CacheEntries: entries})
	defer p.Close()
	for _, ts := range hot {
		if _, err := p.Verdict(Request{Tasks: ts, Safety: cfg, Mode: safety.Kill}); err != nil {
			t.Fatal(err)
		}
	}
	// run submits each goroutine's sets concurrently and checks that
	// every answer's cache provenance is cached.
	run := func(sets func(g int) [][]task.Task, cached bool) {
		t.Helper()
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, ts := range sets(g) {
					v, err := p.Verdict(Request{Tasks: permuted(ts, int64(g*100+i)), Safety: cfg, Mode: safety.Kill})
					if err == nil && v.Cached != cached {
						err = fmt.Errorf("goroutine %d set %d: cached %v, want %v", g, i, v.Cached, cached)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if _, _, _, live := p.CacheStats(); live > entries {
			t.Fatalf("cache holds %d entries, bound is %d", live, entries)
		}
	}
	run(func(int) [][]task.Task {
		var sets [][]task.Task
		for r := 0; r < repeats; r++ {
			sets = append(sets, hot...)
		}
		return sets
	}, true)
	run(func(g int) [][]task.Task { return fresh[g*distinct : (g+1)*distinct] }, false)

	hits, misses, evictions, live := p.CacheStats()
	wantHits := uint64(goroutines * repeats * entries)
	wantMisses := uint64(entries + goroutines*distinct)
	if hits != wantHits || misses != wantMisses || evictions != wantMisses-entries || live != entries {
		t.Fatalf("cache stats: %d hits, %d misses, %d evictions, %d live; want %d, %d, %d, %d",
			hits, misses, evictions, live, wantHits, wantMisses, wantMisses-entries, entries)
	}
}

// TestPipelineShedsWhenQueueFull: with the admission bound reached,
// new misses shed with ErrOverloaded instead of queuing, and admitted
// work still completes correctly once a slot frees. The test holds
// every analysis slot, so saturation is constructed, not raced.
func TestPipelineShedsWhenQueueFull(t *testing.T) {
	p := NewPipeline(Options{QueueDepth: 1})
	cfg := safety.DefaultConfig()
	tasksets := serveCorpus(t, 41, 4)
	want := directVerdict(t, Request{Tasks: tasksets[0], Safety: cfg, Mode: safety.Kill})

	// The first miss takes the only admission and waits for a slot.
	release := holdSlots(p)
	defer release()
	admitted := make(chan error, 1)
	var got Verdict
	go func() {
		var err error
		got, err = p.Verdict(Request{Tasks: tasksets[0], Safety: cfg, Mode: safety.Kill})
		admitted <- err
	}()
	waitFor(t, "the first miss to be admitted", func() bool { return p.admitted.Load() == 1 })
	// Every further miss must shed immediately.
	for _, ts := range tasksets[1:] {
		if _, err := p.Verdict(Request{Tasks: ts, Safety: cfg, Mode: safety.Kill}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("miss against a full pipeline: got %v, want ErrOverloaded", err)
		}
	}
	// Free the slots: the admitted request answers exactly the direct
	// verdict.
	release()
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
	if !sameVerdict(got, want) {
		t.Fatalf("admitted verdict diverged\n got %+v\nwant %+v", got, want)
	}
	p.Close()
	if _, err := p.Verdict(Request{Tasks: tasksets[1], Safety: cfg, Mode: safety.Kill}); !errors.Is(err, ErrClosed) {
		t.Fatalf("miss after Close: got %v, want ErrClosed", err)
	}
}

// TestPipelineInvalidRequests: malformed requests classify as
// ErrInvalid without touching the analysis queue.
func TestPipelineInvalidRequests(t *testing.T) {
	p := NewPipeline(Options{})
	defer p.Close()
	cfg := safety.DefaultConfig()
	ts := serveCorpus(t, 43, 1)[0]
	bad := []Request{
		{Tasks: ts, Safety: cfg, Mode: safety.AdaptMode(99)},
		{Tasks: ts, Safety: cfg, Mode: safety.Degrade, DF: 1},
		{Tasks: ts, Safety: cfg, Mode: safety.Kill, Test: "no-such-test"},
		{Tasks: ts, Safety: cfg, Mode: safety.Kill, Test: "edf-vd-degrade"},
		{Tasks: ts, Safety: safety.Config{OperationHours: -1}, Mode: safety.Kill},
		{Tasks: nil, Safety: cfg, Mode: safety.Kill},
	}
	for i, r := range bad {
		if _, err := p.Verdict(r); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad request %d: got %v, want ErrInvalid", i, err)
		}
	}
}

// TestPipelineClose: Close is idempotent, drains admitted work, rejects
// new analyses with ErrClosed, and keeps serving cache hits.
func TestPipelineClose(t *testing.T) {
	p := NewPipeline(Options{})
	cfg := safety.DefaultConfig()
	tasksets := serveCorpus(t, 47, 2)
	warm := Request{Tasks: tasksets[0], Safety: cfg, Mode: safety.Kill}
	if _, err := p.Verdict(warm); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := p.Verdict(Request{Tasks: tasksets[1], Safety: cfg, Mode: safety.Kill}); !errors.Is(err, ErrClosed) {
		t.Fatalf("miss after Close: got %v, want ErrClosed", err)
	}
	v, err := p.Verdict(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("cache hit after Close was not served from cache")
	}
}

// TestPipelineCloseWaitsForAnalysis: Close refuses new misses at once
// but returns only after the analysis admitted before it has settled,
// and that analysis still answers the exact verdict.
func TestPipelineCloseWaitsForAnalysis(t *testing.T) {
	p := NewPipeline(Options{})
	cfg := safety.DefaultConfig()
	tasksets := serveCorpus(t, 59, 2)
	req := Request{Tasks: tasksets[0], Safety: cfg, Mode: safety.Kill}
	want := directVerdict(t, req)

	release := holdSlots(p)
	defer release()
	type answer struct {
		v   Verdict
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		v, err := p.Verdict(req)
		answered <- answer{v, err}
	}()
	waitFor(t, "the miss to be admitted", func() bool { return p.admitted.Load() == 1 })

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	waitFor(t, "Close to start", func() bool {
		p.closeMu.RLock()
		defer p.closeMu.RUnlock()
		return p.closed
	})
	if _, err := p.Verdict(Request{Tasks: tasksets[1], Safety: cfg, Mode: safety.Kill}); !errors.Is(err, ErrClosed) {
		t.Fatalf("miss during Close: got %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted analysis was still waiting for a slot")
	default:
	}

	release()
	<-closed
	if n := p.admitted.Load(); n != 0 {
		t.Fatalf("Close returned with %d admitted analyses unsettled", n)
	}
	a := <-answered
	if a.err != nil {
		t.Fatal(a.err)
	}
	if !sameVerdict(a.v, want) {
		t.Fatalf("verdict of the drained analysis diverged\n got %+v\nwant %+v", a.v, want)
	}
}
