package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/task"
)

// verdictPlan sizes one verdict workload. Rates are requests per second
// of the whole generator (all senders together).
type verdictPlan struct {
	hot bool
	// rate is the fixed open-loop rate that latency_p50_ms is measured
	// at.
	rate float64
	// satRate bounds the closed-loop saturation phase's throughput from
	// above: the phase is given satRate × sat bodies.
	satRate float64
	// rungs are the fixed, ascending rates of the max-rate staircase
	// (reported, not an end-to-end metric). It starts at the highest rung
	// below startShare of the saturation throughput and takes steps
	// steps, one rung down after a failing step and one up after a
	// passing one.
	rungs []float64
	steps int
	// fixed, sat and step are the lengths of the fixed-rate phase, of
	// the saturation phase and of one staircase step.
	fixed, sat, step time.Duration
	// baseSets is the hot working set's number of base sets (each under
	// every entry of hotVariants).
	baseSets int
	// checkEvery checks every checkEvery-th cold answer (hot runs check
	// every answer).
	checkEvery int
}

// Latency limit of the max-rate staircase (on p90, see phaseStats.Pass)
// and generator-lag limit of a valid run.
const (
	latencyLimit = 25 * time.Millisecond
	lagLimit     = 5 * time.Millisecond
)

// startShare places the staircase's first step below the saturation
// throughput, near where an open loop stops meeting the latency limit.
const startShare = 0.85

// geometric returns n rates from r0 growing by factor, rounded to whole
// requests per second.
func geometric(r0, factor float64, n int) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = math.Round(r0 * math.Pow(factor, float64(i)))
	}
	return rates
}

// planVerdict sizes a verdict run: 40% of the window at the fixed rate,
// 40% in the saturation phase, then 4 staircase steps of 5% each. The
// fixed rates sit at about a quarter of the parent commit's measured
// open-loop capacity on a 2-CPU host (about 500 cold and 4,000 hot
// requests/s), so a host that runs twice as slow for a while still
// leaves the server half idle and the fixed-rate latency does not turn
// into queueing. The staircase's rungs are 5% apart (README.md,
// "Sizing").
func planVerdict(hot bool, seconds int, small bool) verdictPlan {
	p := verdictPlan{hot: hot, rate: 125, satRate: 2000, rungs: geometric(50, 1.05, 90), steps: 4, baseSets: 512, checkEvery: 8}
	if hot {
		p.rate, p.satRate, p.rungs = 1000, 20000, geometric(400, 1.05, 90)
	}
	window := time.Duration(seconds) * time.Second
	p.fixed, p.sat, p.step = window*2/5, window*2/5, window/20
	if small {
		p.rate, p.satRate, p.rungs, p.steps = 50, 200, []float64{40, 60, 80}, 2
		p.fixed, p.sat, p.step = 300*time.Millisecond, 100*time.Millisecond, 150*time.Millisecond
		p.baseSets, p.checkEvery = 6, 3
	}
	return p
}

// hotVariants are the analysis options each hot base set is requested
// under: kill with the default EDF-VD, kill with AMC-rtb, and service
// degradation with df = 6.
var hotVariants = []struct {
	mode, test string
	df         float64
}{
	{"kill", "", 0},
	{"kill", "amc-rtb", 0},
	{"degrade", "", gen.FMSDegradeFactor},
}

// vkey is one distinct verdict request: a task multiset and its
// analysis options.
type vkey struct {
	tasks []task.Task
	mode  string
	test  string
	df    float64
}

// vreq is one request of a phase.
type vreq struct {
	key  int
	body []byte
	// fresh marks the first send of a never-seen key.
	fresh bool
}

// wireRequest mirrors the server's POST /v1/verdict body: the
// benchmark encodes its requests with it and the traced replay decodes
// them into it, as the server does.
type wireRequest struct {
	Set      task.Set `json:"set"`
	Mode     string   `json:"mode,omitempty"`
	DF       float64  `json:"df,omitempty"`
	OSHours  int      `json:"os_hours,omitempty"`
	FullWCET *bool    `json:"full_wcet,omitempty"`
	Test     string   `json:"test,omitempty"`
}

// inputs generates a verdict run's requests from its seed, phase by
// phase, so only one phase's bodies are held at a time. Sets are
// Appendix C draws (HI = B, LO = C, f = 1e-5) at uniformly chosen
// points of the Fig. 3 utilization axis; no set is drawn twice.
type inputs struct {
	hot     bool
	seed    int64
	rng     *rand.Rand
	drawers []*gen.Drawer
	seen    map[uint64]bool
	next    [2]int // next set index of the never-seen and working-set streams
	sent    int    // requests generated so far, for fresh task names
	keys    []vkey
	// warm sends every working-set key once (hot only).
	warm []vreq
	// rank and cdf give the working set's Zipf (s = 1) popularity.
	rank []int
	cdf  []float64
}

func newInputs(seed int64, p verdictPlan) (*inputs, error) {
	in := &inputs{hot: p.hot, seed: seed, rng: rand.New(rand.NewSource(seed)), seen: make(map[uint64]bool)}
	for _, u := range expt.PaperUtils() {
		d, err := gen.NewDrawer(gen.PaperParams(criticality.LevelB, criticality.LevelC, u, 1e-5), 0)
		if err != nil {
			return nil, err
		}
		in.drawers = append(in.drawers, d)
	}
	if !p.hot {
		return in, nil
	}
	for b := 0; b < p.baseSets; b++ {
		tasks, err := in.draw(1)
		if err != nil {
			return nil, err
		}
		for _, v := range hotVariants {
			in.keys = append(in.keys, vkey{tasks: tasks, mode: v.mode, test: v.test, df: v.df})
			body, err := in.marshal(len(in.keys)-1, tasks)
			if err != nil {
				return nil, err
			}
			in.warm = append(in.warm, vreq{key: len(in.keys) - 1, body: body, fresh: true})
		}
	}
	in.rank = in.rng.Perm(len(in.keys))
	in.cdf = make([]float64, len(in.rank))
	sum := 0.0
	for i := range in.cdf {
		sum += 1 / float64(i+1)
		in.cdf[i] = sum
	}
	for i := range in.cdf {
		in.cdf[i] /= sum
	}
	return in, nil
}

// draw returns the tasks of a never-seen set from stream 0 (never-seen
// requests) or 1 (the hot working set).
func (in *inputs) draw(stream int) ([]task.Task, error) {
	for tries := 0; tries < 1000; tries++ {
		ui := in.rng.Intn(len(in.drawers))
		set, err := in.drawers[ui].DrawKeyed(gen.SimulationKey{Seed: in.seed, Panel: stream, Point: ui, Set: in.next[stream]})
		in.next[stream]++
		if err != nil {
			continue
		}
		if h := set.CanonicalHash(); !in.seen[h] {
			in.seen[h] = true
			return append([]task.Task(nil), set.Tasks()...), nil
		}
	}
	return nil, errors.New("could not draw a never-seen task set")
}

// marshal encodes tasks as a request under key k's options.
func (in *inputs) marshal(k int, tasks []task.Task) ([]byte, error) {
	set, err := task.NewSet(tasks)
	if err != nil {
		return nil, err
	}
	key := &in.keys[k]
	return json.Marshal(&wireRequest{Set: *set, Mode: key.mode, DF: key.df, Test: key.test})
}

// fresh makes a request for a never-seen kill-mode set.
func (in *inputs) fresh() (vreq, error) {
	tasks, err := in.draw(0)
	if err != nil {
		return vreq{}, err
	}
	in.keys = append(in.keys, vkey{tasks: tasks})
	body, err := in.marshal(len(in.keys)-1, tasks)
	return vreq{key: len(in.keys) - 1, body: body, fresh: true}, err
}

// resubmit makes a request for a working-set key of Zipf popularity, as
// a fresh permutation with fresh task names.
func (in *inputs) resubmit() (vreq, error) {
	k := in.rank[sort.SearchFloat64s(in.cdf, in.rng.Float64())]
	src := in.keys[k].tasks
	ts := make([]task.Task, len(src))
	for j, pj := range in.rng.Perm(len(ts)) {
		ts[j] = src[pj]
		ts[j].Name = "r" + strconv.Itoa(in.sent) + "." + strconv.Itoa(j)
	}
	body, err := in.marshal(k, ts)
	return vreq{key: k, body: body}, err
}

// pairEvery spaces the hot never-seen pairs: the last two requests of
// every block of 40 are one never-seen set sent twice, so never-seen
// sends are exactly 5% of requests and arrive evenly spread rather than
// in random clusters (the seed chooses the sets, not their timing).
const pairEvery = 40

// phase generates the next n requests. Cold: every request is a
// never-seen set. Hot: 95% resubmit a working-set key, 5% are
// never-seen kill sets, each sent twice at consecutive due times.
func (in *inputs) phase(n int) ([]vreq, error) {
	reqs := make([]vreq, 0, n)
	for len(reqs) < n {
		var r vreq
		var err error
		switch {
		case !in.hot:
			r, err = in.fresh()
		case in.sent%pairEvery == pairEvery-2 && len(reqs)+2 <= n:
			if r, err = in.fresh(); err == nil {
				reqs = append(reqs, r)
				in.sent++
				r.fresh = false
			}
		default:
			r, err = in.resubmit()
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
		in.sent++
	}
	return reqs, nil
}

// requests is the number of arrivals a phase of length d at rate holds.
func requests(rate float64, d time.Duration) int { return int(math.Round(rate * d.Seconds())) }

// seqHeader carries a request's index within its phase, for the traced
// run's handler timing.
const seqHeader = "X-Bench-Seq"

// server is one serve.Server behind a loopback listener, with the
// client that drives it.
type server struct {
	srv    *serve.Server
	pipe   *serve.Pipeline
	hs     *http.Server
	url    string
	served chan error
	tr     *http.Transport
	client *http.Client
	// handlerNs, when traced, receives each request's time inside
	// serve.Server.ServeHTTP, indexed by its seqHeader.
	handlerNs atomic.Pointer[[]atomic.Int64]
	closeOnce sync.Once
	closeErr  error
}

// startServer starts a fresh pipeline and server with default options.
// traced wraps the server in the benchmark's timing middleware.
func startServer(traced bool) (*server, error) {
	pipe := serve.NewPipeline(serve.Options{})
	s := &server{pipe: pipe, srv: serve.NewServer(pipe, serve.ServerOptions{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = s.srv
	if traced {
		h = http.HandlerFunc(s.timed)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String() + "/v1/verdict"
	go func() { s.served <- s.hs.Serve(ln) }()
	n := runtime.NumCPU()
	s.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	return s, nil
}

// timed is the traced run's middleware around serve.Server.
func (s *server) timed(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.srv.ServeHTTP(w, r)
	d := time.Since(t0)
	if slots := s.handlerNs.Load(); slots != nil {
		if i, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && i >= 0 && i < len(*slots) {
			(*slots)[i].Store(int64(d))
		}
	}
}

// send is the generator's request function.
func (s *server) send(ctx context.Context, i int, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(i))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// close shuts the HTTP server down, waits for it and its connections,
// and closes the pipeline. Safe to call more than once.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil {
			s.closeErr = fmt.Errorf("shutting the server down: %w", err)
			s.hs.Close()
		}
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			s.closeErr = errors.Join(s.closeErr, fmt.Errorf("serving: %w", err))
		}
		s.tr.CloseIdleConnections()
		s.srv.Close()
	})
	return s.closeErr
}

// warm sends every request once, closed loop from expt.ForEach's
// goroutines over the client's NumCPU connections, and fails unless
// every answer is a 200.
func (s *server) warm(ctx context.Context, reqs []vreq) ([][]byte, error) {
	resps := make([][]byte, len(reqs))
	err := expt.ForEach(len(reqs), func(i int) error {
		status, b := s.send(ctx, i, reqs[i].body)
		resps[i] = b
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, status, b)
		}
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return resps, err
}

// phase is one phase's requests, rate and outcome: open loop at rate,
// or closed loop for closed when that is positive.
type phase struct {
	rate   float64
	closed time.Duration
	reqs   []vreq
	shots  []shot
	// handlerNs is each request's handler time (traced runs only).
	handlerNs []int64
	// cpu is the process CPU time a closed-loop phase used: the server's,
	// the generator's and the runtime's, which share the process.
	cpu time.Duration
}

// run drives the phase through the server at its rate.
func (ph *phase) run(ctx context.Context, s *server, traced bool) {
	bodies := make([][]byte, len(ph.reqs))
	for i, r := range ph.reqs {
		bodies[i] = r.body
	}
	var slots []atomic.Int64
	if traced {
		slots = make([]atomic.Int64, len(ph.reqs))
		s.handlerNs.Store(&slots)
	}
	if ph.closed > 0 {
		c0 := cpuTime()
		ph.shots = closedLoop(ctx, bodies, runtime.NumCPU(), ph.closed, s.send)
		ph.cpu = cpuTime() - c0
	} else {
		ph.shots = openLoop(ctx, schedule(bodies, ph.rate), runtime.NumCPU(), s.send)
	}
	if traced {
		s.handlerNs.Store(nil)
		ph.handlerNs = make([]int64, len(slots))
		for i := range slots {
			ph.handlerNs[i] = slots[i].Load()
		}
	}
}

// phaseStats summarizes an open-loop phase: latency quantiles from due
// time (a failed request counts as missing every limit), generator lag,
// the closing backlog, and the completion rate.
type phaseStats struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	LagP99Ms float64 `json:"lag_p99_ms"`
	// BacklogMs is how far behind schedule the generator sent at the end
	// of the phase: the median send lateness (sent - due) of its last
	// 10% of arrivals.
	BacklogMs float64 `json:"backlog_ms"`
	Achieved  float64 `json:"achieved_per_s"`
	// Pass: p90 and the closing backlog both within latencyLimit, so
	// the backlog did not grow. p90, not p99: at these sample counts a
	// single host hiccup on a shared 2-CPU machine decides p99 (README.md,
	// "Steadiness").
	Pass bool `json:"pass"`
}

// maxRate estimates the highest rate that meets the latency limit
// without a growing backlog: the median completion rate of the passing
// steps after the staircase's first failing step, which straddle the
// limit from below. A single step's pass or fail is decided by a short
// window, so the median of several is steadier than the highest pass.
// Before any step fails, the estimate is the highest passing step's
// rate, and with no passing step the fixed-rate phase's.
func maxRate(steps []phaseStats, fixed phaseStats) float64 {
	best := fixed.Achieved
	var settled []float64
	failed := false
	for _, st := range steps {
		switch {
		case !st.Pass:
			failed = true
		case failed:
			settled = append(settled, st.Achieved)
		default:
			best = max(best, st.Achieved)
		}
	}
	if len(settled) == 0 {
		return best
	}
	return median(settled)
}

// satStats summarizes the closed-loop saturation phase: its completion
// rate per second of wall time and per second of process CPU time, and
// the client round trips.
type satStats struct {
	Sent       int     `json:"sent"`
	Failed     int     `json:"failed"`
	Throughput float64 `json:"wall_per_s"`
	RTTP50Ms   float64 `json:"rtt_p50_ms"`
	RTTP99Ms   float64 `json:"rtt_p99_ms"`
	// Exhausted means the phase sent every body before its time was up,
	// so it measured a shorter stretch than planned.
	Exhausted bool `json:"exhausted"`
	// CPUS is the process CPU time of the phase and PerCPUS the answered
	// requests per CPU second: throughput_per_s. Waiting for a host that
	// is slow to run an idle thread again costs wall time, not CPU time
	// (README.md, "Steadiness").
	CPUS    float64 `json:"cpu_s"`
	PerCPUS float64 `json:"per_cpu_s"`
}

func (ph *phase) satStats() satStats {
	var st satStats
	var rtt []float64
	var lastDone time.Duration
	for _, s := range ph.shots {
		if s.status < 0 {
			continue
		}
		st.Sent++
		if s.status != http.StatusOK {
			st.Failed++
			continue
		}
		rtt = append(rtt, ms(s.rtt()))
		lastDone = max(lastDone, s.done)
	}
	st.Throughput = ratio(float64(len(rtt)), lastDone.Seconds())
	st.CPUS = ph.cpu.Seconds()
	st.PerCPUS = ratio(float64(len(rtt)), st.CPUS)
	st.RTTP50Ms = quantile(rtt, 0.50)
	st.RTTP99Ms = quantile(rtt, 0.99)
	st.Exhausted = st.Sent == len(ph.shots)
	return st
}

func (ph *phase) stats() phaseStats {
	st := phaseStats{Rate: ph.rate, Requests: len(ph.shots)}
	lat := make([]float64, 0, len(ph.shots))
	lag := make([]float64, 0, len(ph.shots))
	var late []float64
	var lastDone time.Duration
	ok := 0
	for i, s := range ph.shots {
		if i >= len(ph.shots)*9/10 && s.status >= 0 {
			late = append(late, ms(s.sent-s.due))
		}
		if s.status != http.StatusOK {
			st.Failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		lat = append(lat, ms(s.latency()))
		lag = append(lag, ms(s.lag()))
		lastDone = max(lastDone, s.done)
	}
	st.P50Ms = quantile(lat, 0.50)
	st.P90Ms = quantile(lat, 0.90)
	st.P99Ms = quantile(lat, 0.99)
	st.MaxMs = quantile(lat, 1)
	st.LagP99Ms = quantile(lag, 0.99)
	st.BacklogMs = quantile(late, 0.5)
	st.Achieved = ratio(float64(ok), lastDone.Seconds())
	st.Pass = st.P90Ms <= ms(latencyLimit) && st.BacklogMs <= ms(latencyLimit)
	return st
}

// expected computes the verdict core.FTS gives on the canonicalized set
// under k's options — what every served answer for k must equal.
func expected(k *vkey) (serve.Verdict, error) {
	ts := append([]task.Task(nil), k.tasks...)
	task.SortCanonical(ts)
	set, err := task.NewSet(ts)
	if err != nil {
		return serve.Verdict{}, err
	}
	res, err := core.FTS(set, k.options())
	if err != nil {
		return serve.Verdict{}, err
	}
	return serve.Verdict{
		OK: res.OK, Reason: string(res.Reason),
		NHI: res.NHI, NLO: res.NLO, N1HI: res.N1HI, N2HI: res.N2HI,
		Profiles: serve.ProfilesJSON{NHI: res.Profiles.NHI, NLO: res.Profiles.NLO, NPrime: res.Profiles.NPrime},
		PFHHI:    res.PFHHI, PFHLO: res.PFHLO,
		Test: res.TestName,
		Hash: strconv.FormatUint(task.HashTasksCanonical(ts), 16),
	}, nil
}

// options are the core.Options the server resolves for k's request.
func (k *vkey) options() core.Options {
	opt := core.Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	if k.mode == "degrade" {
		opt.Mode, opt.DF = safety.Degrade, k.df
	}
	if k.test == "amc-rtb" {
		opt.Test = mcsched.AMCrtb{}
	}
	return opt
}

// sameVerdict compares every analysis field, the PFH bounds bit for
// bit; Cached is provenance and not compared.
func sameVerdict(a, b serve.Verdict) bool {
	return a.OK == b.OK && a.Reason == b.Reason && a.NHI == b.NHI && a.NLO == b.NLO &&
		a.N1HI == b.N1HI && a.N2HI == b.N2HI && a.Profiles == b.Profiles &&
		math.Float64bits(a.PFHHI) == math.Float64bits(b.PFHHI) &&
		math.Float64bits(a.PFHLO) == math.Float64bits(b.PFHLO) &&
		a.Test == b.Test && a.Hash == b.Hash
}

// checker compares served answers with core.FTS, outside the timed
// phases, memoizing the expected verdict of each key.
type checker struct {
	in      *inputs
	every   int // check every every-th answer
	want    map[int]serve.Verdict
	checked int
	fails   []string
}

// check checks the answers of reqs (a nil answer is skipped: its
// failure is counted by the caller), computing the missing expected
// verdicts on expt.ForEach's goroutines.
func (ck *checker) check(reqs []vreq, resps [][]byte, what string) {
	var idx, missing []int
	for i := 0; i < len(reqs); i += ck.every {
		if resps[i] == nil {
			continue
		}
		idx = append(idx, i)
		if _, ok := ck.want[reqs[i].key]; !ok {
			ck.want[reqs[i].key] = serve.Verdict{}
			missing = append(missing, reqs[i].key)
		}
	}
	verdicts := make([]serve.Verdict, len(missing))
	errs := make([]error, len(missing))
	_ = expt.ForEach(len(missing), func(i int) error {
		verdicts[i], errs[i] = expected(&ck.in.keys[missing[i]])
		return nil
	})
	for i, k := range missing {
		if errs[i] != nil {
			ck.fails = append(ck.fails, fmt.Sprintf("key %d: reference analysis: %v", k, errs[i]))
		}
		ck.want[k] = verdicts[i]
	}
	for _, i := range idx {
		ck.checked++
		var got serve.Verdict
		if err := json.Unmarshal(resps[i], &got); err != nil {
			ck.fails = append(ck.fails, fmt.Sprintf("%s request %d: undecodable answer %q: %v", what, i, resps[i], err))
		} else if want := ck.want[reqs[i].key]; !sameVerdict(got, want) {
			ck.fails = append(ck.fails, fmt.Sprintf("%s request %d: answer %+v, want %+v", what, i, got, want))
		}
	}
}

// verdictPass is one untraced or traced pass of a verdict workload:
// set-up, timed window, answer checks.
type verdictPass struct {
	setupS float64
	fixed  *phase
	// fixedStats and steps summarize the fixed-rate phase and the
	// staircase.
	fixedStats phaseStats
	steps      []phaseStats
	// sat summarizes the saturation phase; maxRate is the staircase's
	// estimate of the highest rate that meets the latency limit
	// (reported only: README.md, "Steadiness").
	sat     satStats
	maxRate float64
	// valid is false when the generator itself ran late (lag p99 above
	// lagLimit): the latencies then measure the host, not the server.
	valid bool
	e2e   map[string]float64
	// attempted and failed count the window's requests; shed the 429
	// and 503 answers among the failures.
	attempted, failed, shed int
	checks                  []string
	checked                 int
	// Traced passes only: registry and verdict-cache counters before
	// and after the fixed-rate phase, and its never-seen keys.
	before, after            counters
	hitsBefore, missesBefore uint64
	hits, misses             uint64
	freshKeys                int
}

// count folds a phase's failed requests into the pass.
func (vp *verdictPass) count(ph *phase) [][]byte {
	resps := make([][]byte, len(ph.shots))
	for i, s := range ph.shots {
		if s.status < 0 {
			continue // never sent: the closed loop's time was up
		}
		vp.attempted++
		switch s.status {
		case http.StatusOK:
			resps[i] = s.resp
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			vp.shed++
			vp.failed++
		default:
			vp.failed++
		}
	}
	return resps
}

func runVerdictCold(ctx context.Context, o options, small bool) (*outcome, error) {
	return runVerdict(ctx, o, planVerdict(false, o.seconds, small))
}

func runVerdictHot(ctx context.Context, o options, small bool) (*outcome, error) {
	return runVerdict(ctx, o, planVerdict(true, o.seconds, small))
}

// runVerdict runs the untraced pass (end-to-end metrics) and, when
// tracing, a second, traced pass on the same inputs followed by the
// layer replay.
func runVerdict(ctx context.Context, o options, p verdictPlan) (*outcome, error) {
	untraced, err := runVerdictPass(ctx, o, p, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: untraced.attempted,
		failed:    untraced.failed,
		checks:    untraced.checks,
		e2e:       untraced.e2e,
		report: map[string]any{
			"plan": map[string]any{
				"rate": p.rate, "sat_rate_bound": p.satRate, "rungs": p.rungs, "start_share": startShare, "staircase_steps": p.steps,
				"fixed_s": p.fixed.Seconds(), "sat_s": p.sat.Seconds(), "step_s": p.step.Seconds(),
				"senders": runtime.NumCPU(), "latency_limit_ms": ms(latencyLimit), "lag_limit_ms": ms(lagLimit),
			},
			"valid":           untraced.valid,
			"fixed_phase":     untraced.fixedStats,
			"saturation":      untraced.sat,
			"staircase":       untraced.steps,
			"answers_checked": untraced.checked,
			"e2e": map[string]float64{
				"setup_s":           untraced.e2e["setup_s"],
				"verdict_p50_ms":    untraced.e2e["latency_p50_ms"],
				"verdict_p90_ms":    untraced.fixedStats.P90Ms,
				"verdict_p99_ms":    untraced.fixedStats.P99Ms,
				"verdict_max_rps":   untraced.maxRate,
				"verdict_sat_rps":   untraced.sat.Throughput,
				"verdict_per_cpu_s": untraced.e2e["throughput_per_s"],
				"rss_peak_mb":       untraced.e2e["rss_peak_mb"],
			},
		},
	}
	if !o.trace {
		return out, nil
	}
	traced, err := runVerdictPass(ctx, o, p, true)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.checks = append(out.checks, traced.checks...)
	layers, fails, err := verdictLayers(ctx, traced)
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		out.fail("%s", f)
	}
	out.layers = layers
	out.report["traced_fixed_phase"] = traced.fixedStats
	out.report["traced_staircase"] = traced.steps
	out.report["tracing_overhead"] = overheadTable(untraced.e2e, traced.e2e)
	return out, nil
}

// overheadTable puts the traced window's end-to-end numbers beside the
// untraced ones.
func overheadTable(untraced, traced map[string]float64) map[string]any {
	t := make(map[string]any, len(untraced))
	for name, u := range untraced {
		t[name] = map[string]float64{"untraced": u, "traced": traced[name], "traced_over_untraced": ratio(traced[name], u)}
	}
	return t
}

// verdictEnv is what one set-up builds: the input generator, the
// fixed-rate phase's requests and a warmed server.
type verdictEnv struct {
	in    *inputs
	fixed []vreq
	s     *server
	warm  [][]byte
}

// runVerdictPass sets up setupReps times (once when traced), runs the
// fixed-rate phase and the staircase, and checks the answers of each phase
// right after it, outside the timed phases. A traced pass installs the
// obsv registry and the timing middleware for its window. The server is
// closed on every path.
func runVerdictPass(ctx context.Context, o options, p verdictPlan, traced bool) (*verdictPass, error) {
	setup := func() (verdictEnv, error) {
		in, err := newInputs(o.seed, p)
		if err != nil {
			return verdictEnv{}, err
		}
		fixed, err := in.phase(requests(p.rate, p.fixed))
		if err != nil {
			return verdictEnv{}, err
		}
		s, err := startServer(traced)
		if err != nil {
			return verdictEnv{}, err
		}
		warm, err := s.warm(ctx, in.warm)
		if err != nil {
			return verdictEnv{}, errors.Join(err, s.close())
		}
		return verdictEnv{in: in, fixed: fixed, s: s, warm: warm}, nil
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	setupS, e, err := timeSetup(reps, setup, func(e verdictEnv) { e.s.close() })
	if err != nil {
		return nil, err
	}
	defer e.s.close()

	vp := &verdictPass{setupS: setupS}
	ck := &checker{in: e.in, every: 1, want: make(map[int]serve.Verdict)}
	if !p.hot {
		ck.every = p.checkEvery
	}
	ck.check(e.in.warm, e.warm, "warm-up")
	if traced {
		reg := obsv.NewRegistry()
		obsv.SetDefault(reg)
		defer obsv.SetDefault(nil)
		vp.before = snapshot(reg)
		vp.hitsBefore, vp.missesBefore, _, _ = e.s.pipe.CacheStats()
	}
	vp.fixed = &phase{rate: p.rate, reqs: e.fixed}
	vp.fixed.run(ctx, e.s, traced)
	if traced {
		vp.after = snapshot(obsv.Default())
		vp.hits, vp.misses, _, _ = e.s.pipe.CacheStats()
		for _, r := range e.fixed {
			if r.fresh {
				vp.freshKeys++
			}
		}
	}
	vp.fixedStats = vp.fixed.stats()
	ck.check(e.fixed, vp.count(vp.fixed), "fixed-rate")
	// Peak RSS after a fixed amount of work: the later phases' request
	// counts follow the host's speed, and every cold request adds a
	// cache entry.
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	reqs, err := e.in.phase(requests(p.satRate, p.sat))
	if err != nil {
		return nil, err
	}
	sat := &phase{closed: p.sat, reqs: reqs}
	sat.run(ctx, e.s, false)
	vp.sat = sat.satStats()
	ck.check(reqs, vp.count(sat), "saturation")
	rung := max(sort.SearchFloat64s(p.rungs, startShare*vp.sat.Throughput)-1, 0)
	for i := 0; i < p.steps && ctx.Err() == nil; i++ {
		rate := p.rungs[rung]
		reqs, err := e.in.phase(requests(rate, p.step))
		if err != nil {
			return nil, err
		}
		ph := &phase{rate: rate, reqs: reqs}
		ph.run(ctx, e.s, false)
		st := ph.stats()
		vp.steps = append(vp.steps, st)
		ck.check(reqs, vp.count(ph), fmt.Sprintf("staircase step %d", i))
		if st.Pass {
			rung = min(rung+1, len(p.rungs)-1)
		} else {
			rung = max(rung-1, 0)
		}
	}
	vp.maxRate = maxRate(vp.steps, vp.fixedStats)
	if err := e.s.close(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vp.checked = ck.checked
	vp.checks = ck.fails
	vp.failed += len(ck.fails)
	if n := vp.failed - len(ck.fails); n > 0 {
		vp.checks = append(vp.checks, fmt.Sprintf("%d requests failed (%d shed)", n, vp.shed))
	}
	vp.valid = vp.fixedStats.LagP99Ms <= ms(lagLimit)
	vp.e2e = map[string]float64{
		"setup_s":          setupS,
		"latency_p50_ms":   vp.fixedStats.P50Ms,
		"throughput_per_s": vp.sat.PerCPUS,
		"rss_peak_mb":      rss,
	}
	return vp, nil
}

// verdictLayers computes the per-layer metrics of a traced verdict
// pass: handler and transport time from the middleware, counter ratios
// from the registry and the pipeline, and the replay of every
// fixed-phase request body through the layer functions.
func verdictLayers(ctx context.Context, r *verdictPass) (map[string]float64, []string, error) {
	ph := r.fixed
	var handler, transport, lag []float64
	for i, s := range ph.shots {
		if s.status != http.StatusOK {
			continue
		}
		h := time.Duration(ph.handlerNs[i])
		handler = append(handler, us(h))
		transport = append(transport, us(s.rtt()-h))
		lag = append(lag, ms(s.lag()))
	}
	rep, fails, err := replay(ctx, ph)
	if err != nil {
		return nil, nil, err
	}
	ftsCalls := delta(r.before, r.after, "core.fts.calls")
	shardHits := delta(r.before, r.after, "safety.shards.hits")
	return map[string]float64{
		"serve.handler_p50_us":           quantile(handler, 0.50),
		"serve.handler_p99_us":           quantile(handler, 0.99),
		"http.transport_p50_us":          quantile(transport, 0.50),
		"loadgen.lag_p99_ms":             quantile(lag, 0.99),
		"task.decode_p50_us":             quantile(rep.decode, 0.50),
		"task.hash_p50_us":               quantile(rep.hash, 0.50),
		"safety.line2_p50_us":            quantile(rep.line2, 0.50),
		"core.fts_safety_p50_us":         quantile(rep.ftsSafety, 0.50),
		"core.fts_sched_p50_us":          quantile(rep.ftsSched, 0.50),
		"core.fts_p50_us":                quantile(rep.fts, 0.50),
		"core.fts_p99_us":                quantile(append([]float64(nil), rep.fts...), 0.99),
		"serve.unattributed_p50_us":      quantile(rep.unattributed, 0.50),
		"serve.cache_hit_ratio":          ratio(float64(r.hits-r.hitsBefore), float64(r.hits-r.hitsBefore+r.misses-r.missesBefore)),
		"serve.analyses_per_new_key":     ratio(float64(r.misses-r.missesBefore), float64(r.freshKeys)),
		"serve.batch_width_mean":         histMean(r.before, r.after, "serve.batch.width"),
		"serve.shed_ratio":               ratio(float64(r.shed), float64(r.attempted)),
		"safety.shards_hit_ratio":        ratio(shardHits, shardHits+delta(r.before, r.after, "safety.shards.misses")),
		"core.line8_probes_per_fts":      ratio(delta(r.before, r.after, "core.line8.probes"), ftsCalls),
		"safety.minadapt_probes_per_fts": ratio(delta(r.before, r.after, "safety.minadapt.probes"), ftsCalls),
	}, fails, nil
}

// replayTimes are the per-request layer times of the replay, in µs.
type replayTimes struct {
	decode, hash                    []float64
	line2, ftsSafety, ftsSched, fts []float64
	unattributed                    []float64
}

// replay re-runs every answered request body of the phase through the
// layer functions, single-threaded, after the window: the JSON decode
// and canonical hash every request pays, and for each request the
// server analysed (a cache miss) line 2, lines 1–7 with a fresh
// adaptation-cache pool, line 8 on top of them, and all of core.FTS.
// The replayed core.FTS must agree with the served answer.
func replay(ctx context.Context, ph *phase) (*replayTimes, []string, error) {
	rt := &replayTimes{}
	var fails []string
	cfg := safety.DefaultConfig()
	for i, s := range ph.shots {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if s.status != http.StatusOK {
			continue
		}
		var served serve.Verdict
		if err := json.Unmarshal(s.resp, &served); err != nil {
			fails = append(fails, fmt.Sprintf("replay of request %d: undecodable answer: %v", i, err))
			continue
		}
		t0 := time.Now()
		var in wireRequest
		if err := json.NewDecoder(bytes.NewReader(ph.reqs[i].body)).Decode(&in); err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		t1 := time.Now()
		_ = task.HashTasksCanonical(in.Set.Tasks())
		t2 := time.Now()
		rt.decode = append(rt.decode, us(t1.Sub(t0)))
		rt.hash = append(rt.hash, us(t2.Sub(t1)))
		if served.Cached {
			continue
		}
		ts := append([]task.Task(nil), in.Set.Tasks()...)
		task.SortCanonical(ts)
		set, err := task.NewSet(ts)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		opt := (&vkey{mode: in.Mode, test: in.Test, df: in.DF}).options()
		// Line 2's answer is part of core.FTS's, which is checked below.
		dual := set.Dual()
		t3 := time.Now()
		_, _ = cfg.MinReexecProfile(set.ByClass(criticality.HI), dual.Requirement(criticality.HI))
		_, _ = cfg.MinReexecProfile(set.ByClass(criticality.LO), dual.Requirement(criticality.LO))
		rt.line2 = append(rt.line2, us(time.Since(t3)))

		opt.Shared = safety.NewCacheShards()
		t5 := time.Now()
		sv, err := core.FTSSafety(set, opt)
		t6 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		if _, err := core.FTSWithSafety(set, opt, sv); err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		t7 := time.Now()
		rt.ftsSafety = append(rt.ftsSafety, us(t6.Sub(t5)))
		rt.ftsSched = append(rt.ftsSched, us(t7.Sub(t6)))

		opt.Shared = safety.NewCacheShards()
		t8 := time.Now()
		res, err := core.FTS(set, opt)
		fts := time.Since(t8)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		rt.fts = append(rt.fts, us(fts))
		rt.unattributed = append(rt.unattributed, us(time.Duration(ph.handlerNs[i])-t2.Sub(t0)-fts))
		if res.OK != served.OK || res.N2HI != served.N2HI || math.Float64bits(res.PFHLO) != math.Float64bits(served.PFHLO) {
			fails = append(fails, fmt.Sprintf("replay of request %d: core.FTS %v disagrees with the served %+v", i, res, served))
		}
	}
	return rt, fails, nil
}
