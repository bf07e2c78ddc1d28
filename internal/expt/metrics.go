package expt

import "repro/internal/obsv"

// exptMetrics is the package's instrument bundle (see internal/obsv):
// the shared worker pool's dispatch volume, chunk claims and per-chunk
// wall time (chunk throughput = chunks / Σ chunk_ns), the live worker
// occupancy gauge, and the Fig. 3 engine's per-data-point latency —
// enough to tell "workers starved" (occupancy low, chunk_ns flat) from
// "points got slower" (point_ns up) without a profiler. Fields are nil
// while metrics are disabled; the per-item hot path is untouched
// either way (instruments fire per chunk, not per index).
type exptMetrics struct {
	poolDispatches *obsv.Counter
	poolChunks     *obsv.Counter
	poolItems      *obsv.Counter
	poolActive     *obsv.Gauge
	poolChunkNs    *obsv.Histogram
	workersBadEnv  *obsv.Counter
	fig3Points     *obsv.Counter
	fig3PointNs    *obsv.Histogram
	// Campaign-engine reuse telemetry: sets drawn once, configurations
	// served per draw (their ratio is the draw amortization), baseline
	// short-circuits, and line-8 schedulability searches run.
	campaignPoints        *obsv.Counter
	campaignPointNs       *obsv.Histogram
	campaignSets          *obsv.Counter
	campaignConfigs       *obsv.Counter
	campaignBaselineHits  *obsv.Counter
	campaignSchedSearches *obsv.Counter
	// Distributed-campaign telemetry, recorded at the coordinator:
	// leases granted (including regrants), leases requeued after a
	// worker failure or deadline, workers lost, and per-lease
	// round-trip latency (grant to merged result).
	distLeases         *obsv.Counter
	distReassigned     *obsv.Counter
	distWorkerFailures *obsv.Counter
	distLeaseNs        *obsv.Histogram
	// Wire-level telemetry of the lease data plane: bytes and frames in
	// each direction, the in-flight lease gauge across all workers
	// (window utilization) and the granted lease sizes.
	distBytesOut  *obsv.Counter
	distBytesIn   *obsv.Counter
	distFramesOut *obsv.Counter
	distFramesIn  *obsv.Counter
	distInflight  *obsv.Gauge
	distLeaseSets *obsv.Histogram
}

var exptView = obsv.NewView(func(r *obsv.Registry) *exptMetrics {
	return &exptMetrics{
		poolDispatches:        r.Counter("expt.pool.dispatches"),
		poolChunks:            r.Counter("expt.pool.chunks"),
		poolItems:             r.Counter("expt.pool.items"),
		poolActive:            r.Gauge("expt.pool.active_workers"),
		poolChunkNs:           r.Histogram("expt.pool.chunk_ns"),
		workersBadEnv:         r.Counter("expt.workers.env_invalid"),
		fig3Points:            r.Counter("expt.fig3.points"),
		fig3PointNs:           r.Histogram("expt.fig3.point_ns"),
		campaignPoints:        r.Counter("expt.campaign.points"),
		campaignPointNs:       r.Histogram("expt.campaign.point_ns"),
		campaignSets:          r.Counter("expt.campaign.sets"),
		campaignConfigs:       r.Counter("expt.campaign.configs"),
		campaignBaselineHits:  r.Counter("expt.campaign.baseline_hits"),
		campaignSchedSearches: r.Counter("expt.campaign.sched_searches"),
		distLeases:            r.Counter("expt.dist.leases"),
		distReassigned:        r.Counter("expt.dist.reassigned"),
		distWorkerFailures:    r.Counter("expt.dist.worker_failures"),
		distLeaseNs:           r.Histogram("expt.dist.lease_ns"),
		distBytesOut:          r.Counter("expt.dist.bytes_out"),
		distBytesIn:           r.Counter("expt.dist.bytes_in"),
		distFramesOut:         r.Counter("expt.dist.frames_out"),
		distFramesIn:          r.Counter("expt.dist.frames_in"),
		distInflight:          r.Gauge("expt.dist.inflight_leases"),
		distLeaseSets:         r.Histogram("expt.dist.lease_sets"),
	}
})
