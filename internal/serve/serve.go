// Package serve is the FT-S admission-control pipeline: the
// sustained-throughput path that turns the repository's analysis engine
// into an online verdict service. A request is a dual-criticality task
// set plus analysis options; the answer is the complete Algorithm 1
// verdict (profiles, failure classification, achieved PFH bounds).
//
// The pipeline has three parts:
//
//   - A sharded LRU verdict cache keyed by the canonical (order-
//     insensitive) task-set hash and the analysis options. Resubmitted
//     sets — including permutations — are answered without touching the
//     analysis at all; a hit is a hash, a shard lock and a multiset
//     guard, hundreds of times cheaper than an uncached analysis.
//
//   - Direct admission of cache misses. A miss runs core.FTS on the
//     request's own goroutine once it holds one of expt.Workers()
//     analysis slots; Options.QueueDepth bounds the misses admitted at
//     once (waiting plus running) and sheds the rest. Identical misses
//     in flight together share one analysis (single-flight): the first
//     leaves a pending entry in the verdict cache and the others wait
//     for it, so N concurrent submissions of a new set cost one
//     analysis.
//
//   - The per-context safety.CacheShards pool underneath, shared by
//     every analysis the pipeline runs, so repeated analysis contexts
//     (e.g. the same set under a different schedulability test) reuse
//     memoized eq. (3)/(5)/(7) state even when the verdict cache
//     missed.
//
// Verdicts are computed on the canonical task ordering
// (task.SortCanonical), so every permutation of one multiset is
// answered by bitwise the same verdict — cached or not. The pipeline is
// pinned to the direct core path by TestPipelineDifferential.
//
// The HTTP layer (server.go) adds per-tenant token-bucket quotas and
// load shedding on top; cmd/ftmc-serve is the runnable server.
package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

// Errors the pipeline classifies for the transport layer.
var (
	// ErrInvalid marks a malformed request (bad task set or options);
	// the HTTP layer maps it to 400.
	ErrInvalid = errors.New("serve: invalid request")
	// ErrOverloaded marks a full admission queue; the HTTP layer maps it
	// to 503 with a Retry-After.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed marks a pipeline that has been shut down.
	ErrClosed = errors.New("serve: pipeline closed")
)

// Request is one verdict request: the task multiset and the analysis
// options. Tasks are never mutated (the pipeline copies before
// canonicalizing); the slice may be a view into transport scratch.
type Request struct {
	// Tasks is the dual-criticality task multiset to analyze.
	Tasks []task.Task
	// Safety is the PFH analysis configuration.
	Safety safety.Config
	// Mode selects LO-task killing or service degradation.
	Mode safety.AdaptMode
	// DF is the degradation factor (> 1); read only in Degrade mode.
	DF float64
	// Test names the schedulability test S: one of "", "edf-vd", "edf",
	// "dm-rta", "smc", "amc-rtb", "dbf-tune", "edf-vd-degrade". Empty
	// selects Algorithm 1's default for the mode.
	Test string
}

// Verdict is the complete FT-S answer for one request — core.Result
// minus the converted set (rebuildable from the profiles), plus cache
// provenance. All fields that exist in core.Result are bit-identical to
// a direct core.FTS run on the canonicalized set.
type Verdict struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	// NHI, NLO, N1HI, N2HI are the Algorithm 1 search results.
	NHI  int `json:"n_hi"`
	NLO  int `json:"n_lo"`
	N1HI int `json:"n1_hi"`
	N2HI int `json:"n2_hi"`
	// Profiles are the chosen profiles on success.
	Profiles ProfilesJSON `json:"profiles"`
	// PFHHI, PFHLO are the achieved safety bounds on success.
	PFHHI float64 `json:"pfh_hi,omitempty"`
	PFHLO float64 `json:"pfh_lo,omitempty"`
	// Test records which schedulability test S decided line 8.
	Test string `json:"test"`
	// Hash is the canonical task-set hash (hex), the verdict-cache key.
	Hash string `json:"hash"`
	// Cached reports whether this answer came from a verdict already in
	// the cache; it is false both for the request that ran the analysis
	// and for requests that waited on that analysis in flight.
	Cached bool `json:"cached"`
}

// ProfilesJSON is core.Profiles with JSON tags.
type ProfilesJSON struct {
	NHI    int `json:"n_hi"`
	NLO    int `json:"n_lo"`
	NPrime int `json:"n_prime"`
}

// optKey is the comparable analysis-options half of a verdict-cache
// key. DF is normalized to 0 outside Degrade mode (it is not read
// there), so kill requests differing only in a stray df collide.
type optKey struct {
	cfg  safety.Config
	mode safety.AdaptMode
	df   uint64 // Float64bits; 0 in Kill mode
	test string // resolved test name ("" = mode default)
}

// resolveTest maps a request's test name to the mcsched implementation.
// The empty name resolves to nil (core.Options' per-mode default).
func resolveTest(name string, mode safety.AdaptMode, df float64) (mcsched.Test, error) {
	switch name {
	case "":
		return nil, nil
	case "edf-vd":
		return mcsched.EDFVD{}, nil
	case "edf":
		return mcsched.EDFWorstCase{}, nil
	case "dm-rta":
		return mcsched.DMRTA{}, nil
	case "smc":
		return mcsched.SMC{}, nil
	case "amc-rtb":
		return mcsched.AMCrtb{}, nil
	case "dbf-tune":
		return mcsched.DBFTune{}, nil
	case "edf-vd-degrade":
		if mode != safety.Degrade {
			return nil, fmt.Errorf("%w: test %q requires degrade mode", ErrInvalid, name)
		}
		return mcsched.EDFVDDegrade{DF: df}, nil
	default:
		return nil, fmt.Errorf("%w: unknown schedulability test %q", ErrInvalid, name)
	}
}

// keyOf validates the option fields of a request and builds its cache
// key and the resolved schedulability test.
func keyOf(req Request) (optKey, mcsched.Test, error) {
	if err := req.Safety.Validate(); err != nil {
		return optKey{}, nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	df := req.DF
	switch req.Mode {
	case safety.Kill:
		df = 0
	case safety.Degrade:
		if !(df > 1) {
			return optKey{}, nil, fmt.Errorf("%w: degradation factor must be > 1, got %g", ErrInvalid, df)
		}
	default:
		return optKey{}, nil, fmt.Errorf("%w: unknown adaptation mode %d", ErrInvalid, int(req.Mode))
	}
	test, err := resolveTest(req.Test, req.Mode, df)
	if err != nil {
		return optKey{}, nil, err
	}
	return optKey{cfg: req.Safety, mode: req.Mode, df: math.Float64bits(df), test: req.Test}, test, nil
}

// Options configures a Pipeline.
type Options struct {
	// CacheEntries bounds the verdict cache (total entries across its
	// shards); <= 0 selects DefaultCacheEntries.
	CacheEntries int
	// QueueDepth bounds the cache misses admitted at once: analyses
	// waiting for a slot plus analyses running. A full pipeline sheds
	// (ErrOverloaded) instead of queueing more; requests that join an
	// identical in-flight analysis take no admission. <= 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// ShardContexts caps the per-shard context count of the underlying
	// safety.CacheShards pool (see safety.NewCacheShardsCap); 0 selects
	// the safety default.
	ShardContexts int
}

// Pipeline defaults, sized for the single-process serve workload: a
// 64Ki-verdict cache is a few tens of MB at paper set sizes.
const (
	DefaultCacheEntries = 1 << 16
	DefaultQueueDepth   = 1024
)

// Pipeline is the verdict pipeline: cache, admission, shared adaptation
// shards. Safe for concurrent use. Create with NewPipeline; Close waits
// for admitted analyses.
type Pipeline struct {
	cache  *verdictCache
	shards *safety.CacheShards
	// slots holds one token per running analysis; its capacity,
	// expt.Workers() at construction, bounds the analyses run at once.
	slots    chan struct{}
	depth    int64
	admitted atomic.Int64 // misses admitted and not yet settled

	// closeMu orders admissions against Close: a miss holds the read
	// side across the closed check and its running.Add, so Close's
	// running.Wait covers every analysis admitted before it.
	closeMu sync.RWMutex
	closed  bool
	running sync.WaitGroup
}

// NewPipeline builds a pipeline.
func NewPipeline(o Options) *Pipeline {
	if o.CacheEntries <= 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	var shards *safety.CacheShards
	if o.ShardContexts > 0 {
		shards = safety.NewCacheShardsCap(o.ShardContexts)
	} else {
		shards = safety.NewCacheShards()
	}
	return &Pipeline{
		cache:  newVerdictCache(o.CacheEntries),
		shards: shards,
		slots:  make(chan struct{}, expt.Workers()),
		depth:  int64(o.QueueDepth),
	}
}

// Verdict answers one request: a cache hit, a wait on the identical
// analysis already in flight, or an analysis of its own. Errors are
// ErrInvalid (bad request), ErrOverloaded (admission full) or
// ErrClosed; analysis itself cannot fail on a validated request.
func (p *Pipeline) Verdict(req Request) (Verdict, error) {
	m := serveView.Get()
	sp := m.verdictNs.Start()
	defer sp.End()
	m.requests.Inc()

	key, test, err := keyOf(req)
	if err != nil {
		m.invalid.Inc()
		return Verdict{}, err
	}
	h := task.HashTasksCanonical(req.Tasks)
	v, e, hit := p.cache.get(h, key, req.Tasks)
	if hit {
		m.cacheHits.Inc()
		v.Cached = true
		return v, nil
	}
	m.cacheMisses.Inc()
	if e == nil {
		// Canonicalize the execution order, validate, and claim the
		// analysis — unless an identical request claimed it since get.
		ts := append([]task.Task(nil), req.Tasks...)
		task.SortCanonical(ts)
		set, err := task.NewSet(ts)
		if err != nil {
			m.invalid.Inc()
			return Verdict{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		var lead bool
		if e, lead, err = p.claim(h, key, set.Tasks()); err != nil {
			return Verdict{}, err
		}
		if lead {
			df := req.DF
			if req.Mode == safety.Kill {
				df = 0
			}
			p.analyze(e, set, core.Options{
				Safety: req.Safety,
				Mode:   req.Mode,
				DF:     df,
				Test:   test,
				Shared: p.shards,
			})
			return e.v, e.err
		}
	}
	m.joins.Inc()
	e.wg.Wait()
	return e.v, e.err
}

// claim admits a miss: it returns the entry an identical request
// created since the cache probe (lead false), or a new in-flight entry
// the caller must analyze (lead true). A closed pipeline refuses with
// ErrClosed, a full one with ErrOverloaded.
func (p *Pipeline) claim(h uint64, key optKey, ts []task.Task) (e *ventry, lead bool, err error) {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return nil, false, ErrClosed
	}
	e, lead = p.cache.claim(h, key, ts, p.admit)
	if e == nil {
		serveView.Get().shedQueue.Inc()
		return nil, false, ErrOverloaded
	}
	if lead {
		p.running.Add(1)
	}
	return e, lead, nil
}

// admit takes one admission unless QueueDepth misses are already
// admitted.
func (p *Pipeline) admit() bool {
	n := p.admitted.Add(1)
	if n > p.depth {
		p.admitted.Add(-1)
		return false
	}
	serveView.Get().queueDepth.Set(n)
	return true
}

// analyze runs Algorithm 1 for the claimed entry e once an analysis
// slot is free, then settles e for every request waiting on it. The
// deferred settle also runs if the analysis panics, so followers and
// Close never wait on an entry that cannot complete.
func (p *Pipeline) analyze(e *ventry, set *task.Set, opt core.Options) {
	v, err := Verdict{}, errAborted
	defer func() {
		p.cache.settle(e, v, err)
		serveView.Get().queueDepth.Set(p.admitted.Add(-1))
		p.running.Done()
	}()
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	serveView.Get().analyses.Inc()
	res, err := core.FTS(set, opt)
	if err == nil {
		v = verdictOf(res, e.key.hash)
	}
}

// errAborted settles an analysis that panicked.
var errAborted = errors.New("serve: analysis aborted")

// verdictOf projects a core.Result onto the wire verdict.
func verdictOf(res core.Result, hash uint64) Verdict {
	return Verdict{
		OK:     res.OK,
		Reason: string(res.Reason),
		NHI:    res.NHI, NLO: res.NLO, N1HI: res.N1HI, N2HI: res.N2HI,
		Profiles: ProfilesJSON{NHI: res.Profiles.NHI, NLO: res.Profiles.NLO, NPrime: res.Profiles.NPrime},
		PFHHI:    res.PFHHI, PFHLO: res.PFHLO,
		Test: res.TestName,
		Hash: strconv.FormatUint(hash, 16),
	}
}

// CacheStats reports the verdict cache's effectiveness and occupancy:
// hits on completed verdicts, misses that started an analysis (a
// request that joins an identical in-flight analysis is neither),
// evictions and live entries.
func (p *Pipeline) CacheStats() (hits, misses, evictions uint64, entries int) {
	return p.cache.stats()
}

// Contexts returns the number of adaptation contexts pooled underneath
// the verdict cache (bounded by the shard cap; overload tests use it as
// a memory-leak probe).
func (p *Pipeline) Contexts() int { return p.shards.Contexts() }

// Close rejects new analyses and waits for the admitted ones to finish;
// afterwards Verdict calls that need analysis return ErrClosed (cache
// hits are still answered). Idempotent.
func (p *Pipeline) Close() {
	p.closeMu.Lock()
	p.closed = true
	p.closeMu.Unlock()
	p.running.Wait()
}
