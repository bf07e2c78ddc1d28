package safety

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// Tests of the certified eq. (5) interval (killing_interval.go): the
// exact floor sums it rests on, containment of the exact kernel's value,
// and the equality of every settled MeetsLO answer with the exact
// comparison.

func floorSumBrute(n, m, a, b uint64) *big.Int {
	sum := new(big.Int)
	for i := uint64(0); i < n; i++ {
		sum.Add(sum, new(big.Int).SetUint64((a*i+b)/m))
	}
	return sum
}

func u128Big(x u128) *big.Int {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(x.hi), 64)
	return v.Add(v, new(big.Int).SetUint64(x.lo))
}

func TestFloorSumBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for cse := 0; cse < 5000; cse++ {
		n := uint64(rng.Intn(300))
		m := 1 + uint64(rng.Int63n(1+rng.Int63n(5000)))
		a := uint64(rng.Int63n(1 + rng.Int63n(5000)))
		b := uint64(rng.Int63n(1 + rng.Int63n(50000)))
		if got, want := u128Big(floorSum(n, m, a, b)), floorSumBrute(n, m, a, b); got.Cmp(want) != 0 {
			t.Fatalf("floorSum(%d, %d, %d, %d) = %v, want %v", n, m, a, b, got, want)
		}
	}
}

// floorSumPeriodic is an independent exact reference for large n and a
// small modulus m: Σ⌊(a·i + b)/m⌋ = (Σ(a·i + b) − Σ((a·i + b) mod m))/m,
// where the residues repeat with period m.
func floorSumPeriodic(n, m, a, b uint64) *big.Int {
	N := new(big.Int).SetUint64(n)
	lin := new(big.Int).Mul(N, new(big.Int).SetUint64(n-1))
	lin.Rsh(lin, 1)
	lin.Mul(lin, new(big.Int).SetUint64(a))
	lin.Add(lin, new(big.Int).Mul(N, new(big.Int).SetUint64(b)))
	var cycle, head uint64
	full, rest := n/m, n%m
	for i := uint64(0); i < m; i++ {
		r := (a%m*i + b%m) % m
		cycle += r
		if i < rest {
			head += r
		}
	}
	res := new(big.Int).Mul(new(big.Int).SetUint64(full), new(big.Int).SetUint64(cycle))
	res.Add(res, new(big.Int).SetUint64(head))
	lin.Sub(lin, res)
	return lin.Quo(lin, new(big.Int).SetUint64(m))
}

// At 1 µs periods over 10 h the sums pass 2⁶⁴: the 128-bit path must
// still be exact.
func TestFloorSum128(t *testing.T) {
	t10 := uint64(timeunit.Hours(10))
	cases := [][4]uint64{
		{t10, 1, 1, 0},            // T = T_j = 1 µs: Σ i
		{t10, 1, 1, t10},          // shifted by a whole horizon
		{t10, 7, 1, 3},            // T = 1 µs against a 7 µs staircase
		{t10 / 3, 1, 3, 5},        // T = 3 µs against a 1 µs staircase
		{t10 / 101, 163, 101, 42}, // the co-prime periods of ROADMAP item 1
		{t10, 999, 997, 1_000_000},
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, c := range cases {
		got := u128Big(floorSum(c[0], c[1], c[2], c[3]))
		want := floorSumPeriodic(c[0], c[1], c[2], c[3])
		if got.Cmp(want) != 0 {
			t.Errorf("floorSum%v = %v, want %v", c, got, want)
		}
		if c[1] <= 7 && got.Cmp(two64) < 0 {
			t.Errorf("floorSum%v = %v does not exercise the 128-bit path", c, got)
		}
	}
}

func TestTailRoundsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Config{OperationHours: 1, AssumeFullWCET: true}
	for cse := 0; cse < 3000; cse++ {
		k := rng.Int63n(400)
		T := timeunit.Time(1 + rng.Int63n(1000))
		Tj := timeunit.Time(1 + rng.Int63n(1000))
		a := timeunit.Time(rng.Int63n(200_000) - 1000)
		hi := task.Task{Period: Tj, Deadline: Tj, WCET: 1}
		want := new(big.Int)
		for m := int64(0); m < k; m++ {
			// Rounds(α) with n·C = 1 is ⌊(α − 1)/T_j⌋ + 1 clamped at 0.
			want.Add(want, big.NewInt(cfg.Rounds(hi, 1, a-timeunit.Time(m)*T+1)))
		}
		if got := u128Big(tailRounds(k, a, T, Tj)); got.Cmp(want) != 0 {
			t.Fatalf("tailRounds(%d, %d, %d, %d) = %v, want %v", k, a, T, Tj, got, want)
		}
	}
}

// intervalCase is one eq. (5) evaluation checked for containment.
type intervalCase struct {
	name   string
	cfg    Config
	hi, lo []task.Task
}

// checkContainment asserts that the exact kernel's value at every n′ in
// nprimes lies in the settle interval, and that MeetsLO answers exactly
// as the exact comparison for requirements around the value. The
// requirements run from far to near on one cache per n′, so the far ones
// meet the interval and the first near one the fallback sweep, whose
// memoized value answers the rest; near = false keeps only the
// requirements a factor 10 or more away (and saves that second sweep).
func checkContainment(t *testing.T, c intervalCase, nLO int, nprimes []int, near bool) {
	t.Helper()
	for _, np := range nprimes {
		adapt, err := NewUniformAdaptation(c.cfg, c.hi, np)
		if err != nil {
			t.Fatal(err)
		}
		v := c.cfg.KillingPFHLOUniform(c.lo, nLO, adapt)
		lo, hi := c.cfg.KillingIntervalUniform(c.lo, nLO, adapt)
		if !(lo <= v && v <= hi) {
			t.Fatalf("%s n'=%d nLO=%d: exact %.17g outside [%.17g, %.17g]", c.name, np, nLO, v, lo, hi)
		}
		reqs := []float64{v / 10, v * 10}
		if near {
			reqs = append(reqs, 1e-5, 1e-7, v*(1-1e-3), v*(1+1e-3), v*(1-1e-12), v, v*(1+1e-12))
		}
		cache := NewAdaptationCache(c.cfg, c.hi, c.lo)
		for _, req := range reqs {
			if req <= 0 {
				continue
			}
			got, err := cache.MeetsLO(Kill, nLO, np, 0, req)
			if err != nil {
				t.Fatal(err)
			}
			if got != (v < req) {
				t.Fatalf("%s n'=%d: MeetsLO(%g) = %v, exact %g < req is %v", c.name, np, req, got, v, v < req)
			}
		}
	}
}

func allProfiles() []int {
	ns := make([]int, MaxProfile)
	for i := range ns {
		ns[i] = i + 1
	}
	return ns
}

func TestKillingIntervalContainsAppendixC(t *testing.T) {
	cfg := DefaultConfig()
	for _, f := range []float64{1e-3, 1e-5} {
		for _, level := range []criticality.Level{criticality.LevelC, criticality.LevelD} {
			for k, u := range []float64{0.6, 1.0} {
				d, err := gen.NewDrawer(gen.PaperParams(criticality.LevelB, level, u, f), 0)
				if err != nil {
					t.Fatal(err)
				}
				s, err := d.Draw(int64(k))
				if err != nil {
					t.Fatal(err)
				}
				lo := s.ByClass(criticality.LO)
				nLO, err := cfg.MinReexecProfile(lo, level.PFHRequirement())
				if err != nil {
					continue
				}
				c := intervalCase{fmt.Sprintf("f=%g %v U=%g", f, level, u), cfg, s.ByClass(criticality.HI), lo}
				checkContainment(t, c, nLO, allProfiles(), true)
			}
		}
	}
}

func TestKillingIntervalContainsFMS(t *testing.T) {
	s := gen.FMSAt(gen.DefaultFMSKillSeed)
	cfg := Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	c := intervalCase{"FMS", cfg, s.ByClass(criticality.HI), s.ByClass(criticality.LO)}
	for nLO := 1; nLO <= 3; nLO++ {
		checkContainment(t, c, nLO, allProfiles(), true)
	}
}

// The co-prime 101/163/211/251 µs set of ROADMAP item 1, whose exact
// sweep visits 3e7 points per probe at OS = 1 h.
func TestKillingIntervalContainsCoprime(t *testing.T) {
	mk := func(T, C int64, l criticality.Level) task.Task {
		return task.Task{Name: "t", Period: timeunit.Time(T), Deadline: timeunit.Time(T),
			WCET: timeunit.Time(C), Level: l, FailProb: 1e-5}
	}
	hi := []task.Task{mk(101, 10, criticality.LevelB), mk(163, 16, criticality.LevelB)}
	lo := []task.Task{mk(211, 20, criticality.LevelD), mk(251, 25, criticality.LevelD)}
	checkContainment(t, intervalCase{"coprime", DefaultConfig(), hi, lo}, 1, []int{2}, false)
}

// Arbitrary deadlines with α₁ > t (D > T + n·C), footnote 1's
// AssumeFullWCET: false, and tasks with f = 0, on random sets.
func TestKillingIntervalContainsCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for cse := 0; cse < 60; cse++ {
		cfg, hi, lo, _, _ := diffCase(rng)
		switch cse % 3 {
		case 0: // α₁ > t for every LO task
			for i := range lo {
				lo[i].Deadline = lo[i].Period + lo[i].WCET.MulSafe(4) + 1 + timeunit.Time(rng.Int63n(int64(lo[i].Period)))
			}
		case 1:
			cfg.AssumeFullWCET = false
		case 2: // f = 0 on some HI and LO tasks
			hi[0].FailProb = 0
			lo[0].FailProb = 0
		}
		c := intervalCase{fmt.Sprintf("corner %d", cse), cfg, hi, lo}
		checkContainment(t, c, 1+cse%4, []int{1, 2, 3, 5, 8}, true)
	}
}

// An all-zero bound (no task can fail) is the interval [0, 0].
func TestKillingIntervalZero(t *testing.T) {
	hi := []task.Task{{Period: ms(10), Deadline: ms(10), WCET: ms(1), Level: criticality.LevelB}}
	lo := []task.Task{{Period: ms(20), Deadline: ms(20), WCET: ms(2), Level: criticality.LevelC}}
	cfg := DefaultConfig()
	adapt, err := NewUniformAdaptation(cfg, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := cfg.KillingIntervalUniform(lo, 1, adapt); lo != 0 || hi != 0 {
		t.Fatalf("interval [%g, %g], want [0, 0]", lo, hi)
	}
}

// TestMeetsLOIntervalCounters reads both counters from a live registry:
// every Kill-mode probe that reaches eq. (5) is counted once, as settled
// or as a fallback, and a memoized exact value answers without either.
func TestMeetsLOIntervalCounters(t *testing.T) {
	r := obsv.NewRegistry()
	obsv.SetDefault(r)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	s := gen.FMSAt(gen.DefaultFMSKillSeed)
	cfg := Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	cache := NewAdaptationCache(cfg, s.ByClass(criticality.HI), s.ByClass(criticality.LO))
	v, err := cache.killingPFHLOUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := func() (uint64, uint64) {
		snap := r.Snapshot()
		return snap.Counters["safety.kill.interval_settled"], snap.Counters["safety.kill.interval_fallbacks"]
	}
	for _, q := range []struct {
		np        int
		req       float64
		settled   uint64 // cumulative
		wantMeets bool
	}{
		{np: 3, req: v * 2, wantMeets: true}, // memoized exact value
		{np: 1, req: 1e-30, settled: 1},
		{np: 2, req: 1, settled: 2, wantMeets: true},
		{np: 4, req: math.Inf(1), settled: 2, wantMeets: true}, // +Inf never reaches eq. (5)
	} {
		got, err := cache.MeetsLO(Kill, 2, q.np, 0, q.req)
		if err != nil || got != q.wantMeets {
			t.Fatalf("MeetsLO(n'=%d, %g) = %v, %v; want %v", q.np, q.req, got, err, q.wantMeets)
		}
		if s, f := count(); s != q.settled || f != 0 {
			t.Fatalf("after n'=%d: settled %d, fallbacks %d; want %d, 0", q.np, s, f, q.settled)
		}
	}
	// A requirement inside the interval falls back to the sweep.
	adapt, err := NewUniformAdaptation(cfg, s.ByClass(criticality.HI), 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := cfg.KillingPFHLOUniform(s.ByClass(criticality.LO), 2, adapt)
	if got, err := cache.MeetsLO(Kill, 2, 5, 0, exact); err != nil || got {
		t.Fatalf("MeetsLO at the exact value = %v, %v; want false", got, err)
	}
	if s, f := count(); s != 2 || f != 1 {
		t.Fatalf("settled %d, fallbacks %d; want 2, 1", s, f)
	}
}

// killProbe is one eq. (5) evaluation: LO tasks, their profile and the
// adaptation model of n′.
type killProbe struct {
	lo    []task.Task
	nLO   int
	adapt *Adaptation
}

// appendixCProbes is a fixed kill-probe corpus: Appendix C sets (HI = B,
// LO = C, f = 1e-5) across the paper's utilizations, each at n′ = 1..6.
func appendixCProbes(tb testing.TB, sets int) []killProbe {
	tb.Helper()
	cfg := DefaultConfig()
	var probes []killProbe
	for k := 0; k < sets; k++ {
		u := 0.30 + 0.05*float64(k%15)
		d, err := gen.NewDrawer(gen.PaperParams(criticality.LevelB, criticality.LevelC, u, 1e-5), 0)
		if err != nil {
			tb.Fatal(err)
		}
		s, err := d.Draw(int64(k))
		if err != nil {
			tb.Fatal(err)
		}
		lo := s.ByClass(criticality.LO)
		nLO, err := cfg.MinReexecProfile(lo, criticality.LevelC.PFHRequirement())
		if err != nil {
			continue
		}
		for np := 1; np <= 6; np++ {
			adapt, err := NewUniformAdaptation(cfg, s.ByClass(criticality.HI), np)
			if err != nil {
				tb.Fatal(err)
			}
			probes = append(probes, killProbe{lo, nLO, adapt})
		}
	}
	return probes
}

// BenchmarkKillProbe times one kill probe on a fixed Appendix C corpus:
// the exact eq. (5) sweep against the certified interval that settles
// MeetsLO. The us/probe metric is the per-probe cost.
func BenchmarkKillProbe(b *testing.B) {
	probes := appendixCProbes(b, 30)
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name string
		eval func(p killProbe) float64
	}{
		{"exact", func(p killProbe) float64 { return cfg.KillingPFHLOUniform(p.lo, p.nLO, p.adapt) }},
		{"interval", func(p killProbe) float64 { _, hi := cfg.KillingIntervalUniform(p.lo, p.nLO, p.adapt); return hi }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range probes {
					if v := bc.eval(p); v < 0 || math.IsNaN(v) {
						b.Fatalf("bad bound %g", v)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(probes)), "us/probe")
		})
	}
}

// FuzzKillInterval draws small random sets from the fuzz input — OS 1–10
// h, periods from 1 µs, profiles 1–8 — and asserts that the interval
// never panics, contains the exact value, and that every MeetsLO answer
// equals the exact comparison. LO periods are floored so the exact sweep
// visits at most maxFuzzPoints points; HI periods go down to 1 µs, where
// the round-count sums need the 128-bit path.
func FuzzKillInterval(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), uint8(2), int64(-5), true)
	f.Add(uint64(20261016), uint8(10), uint8(3), uint8(8), int64(-3), false)
	f.Add(uint64(7), uint8(4), uint8(1), uint8(1), int64(-12), true)
	f.Fuzz(func(t *testing.T, seed uint64, hours, nprime, nLO uint8, logReq int64, fullWCET bool) {
		const maxFuzzPoints = 20_000
		cfg := Config{OperationHours: 1 + int(hours%10), AssumeFullWCET: fullWCET}
		np, nl := 1+int(nprime%8), 1+int(nLO%8)
		horizon := int64(cfg.Horizon())
		rng := rand.New(rand.NewSource(int64(seed)))
		mk := func(minT int64, l criticality.Level) task.Task {
			T := minT + rng.Int63n(1+rng.Int63n(horizon/4))
			D := T
			if rng.Intn(3) == 0 {
				D = 1 + rng.Int63n(2*T+4096)
			}
			f := 0.0
			if rng.Intn(6) != 0 {
				f = math.Pow(10, -1-8*rng.Float64())
			}
			return task.Task{Period: timeunit.Time(T), Deadline: timeunit.Time(D),
				WCET: timeunit.Time(1 + rng.Int63n(T)), Level: l, FailProb: f}
		}
		var hi, lo []task.Task
		for range 1 + rng.Intn(4) {
			hi = append(hi, mk(1, criticality.LevelB))
		}
		for range 1 + rng.Intn(3) {
			lo = append(lo, mk(horizon/maxFuzzPoints, criticality.LevelC))
		}
		adapt, err := NewUniformAdaptation(cfg, hi, np)
		if err != nil {
			t.Fatal(err)
		}
		v := cfg.KillingPFHLOUniform(lo, nl, adapt)
		l, h := cfg.KillingIntervalUniform(lo, nl, adapt)
		if !(l <= v && v <= h) {
			t.Fatalf("exact %.17g outside [%.17g, %.17g]\ncfg %+v n'=%d nLO=%d\nhi %v\nlo %v", v, l, h, cfg, np, nl, hi, lo)
		}
		req := math.Pow(10, float64(logReq%16))
		for _, r := range []float64{req, v, v * (1 + 1e-6), v * (1 - 1e-6)} {
			got, err := NewAdaptationCache(cfg, hi, lo).MeetsLO(Kill, nl, np, 0, r)
			if err != nil {
				t.Fatal(err)
			}
			if got != (v < r) {
				t.Fatalf("MeetsLO(%g) = %v, exact %g", r, got, v)
			}
		}
	})
}
