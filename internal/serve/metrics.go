package serve

import "repro/internal/obsv"

// serveMetrics is the package's instrument bundle (see internal/obsv):
// request volume and outcome classification, verdict-cache
// effectiveness, end-to-end verdict latency, and the admission profile
// — analyses started against single-flight joins (requests that waited
// on an identical analysis already in flight instead of running their
// own), plus the admitted-miss gauge that QueueDepth bounds and the
// count of misses shed beyond it (503). Fields are nil while metrics
// are disabled (nil-safe no-op methods).
type serveMetrics struct {
	requests    *obsv.Counter
	invalid     *obsv.Counter
	cacheHits   *obsv.Counter
	cacheMisses *obsv.Counter
	verdictNs   *obsv.Histogram

	analyses   *obsv.Counter
	joins      *obsv.Counter
	queueDepth *obsv.Gauge

	shedQueue *obsv.Counter
}

var serveView = obsv.NewView(func(r *obsv.Registry) *serveMetrics {
	return &serveMetrics{
		requests:    r.Counter("serve.requests"),
		invalid:     r.Counter("serve.invalid"),
		cacheHits:   r.Counter("serve.cache.hits"),
		cacheMisses: r.Counter("serve.cache.misses"),
		verdictNs:   r.Histogram("serve.verdict.ns"),
		analyses:    r.Counter("serve.analyses"),
		joins:       r.Counter("serve.singleflight.joins"),
		queueDepth:  r.Gauge("serve.queue.depth"),
		shedQueue:   r.Counter("serve.shed.queue"),
	}
})
