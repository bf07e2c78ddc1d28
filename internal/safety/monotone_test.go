package safety

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// Property tests pinning the bisection precondition of the line-4
// searches: both pfh(LO) bounds are non-increasing in the uniform
// adaptation profile n′ (Lemma 3.3/3.4 — a larger n′ adapts the LO tasks
// less often, so the LO tasks lose fewer rounds), and the bisected
// MinAdaptProfile agrees with the linear reference scan on seeded random
// sets. Monotonicity is asserted with a 1e-9 relative slack: successive
// n′ evaluations are independent floating-point computations, so exact
// non-increase is not guaranteed bitwise, only up to rounding.

const monotoneSlack = 1e-9

func assertNonIncreasing(t *testing.T, cse int, label string, vals []float64) {
	t.Helper()
	for n := 1; n < len(vals); n++ {
		prev, cur := vals[n-1], vals[n]
		if cur > prev*(1+monotoneSlack)+math.SmallestNonzeroFloat64 {
			t.Errorf("case %d: %s increased at n'=%d: %.17g -> %.17g", cse, label, n+1, prev, cur)
		}
	}
}

func TestKillingPFHLOMonotoneInNPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for cse := 0; cse < 100; cse++ {
		cfg, hi, lo, _, _ := diffCase(rng)
		nLO := 1 + rng.Intn(4)
		vals := make([]float64, 0, 10)
		for np := 1; np <= 10; np++ {
			adapt, err := NewUniformAdaptation(cfg, hi, np)
			if err != nil {
				t.Fatalf("case %d: %v", cse, err)
			}
			vals = append(vals, cfg.KillingPFHLOUniform(lo, nLO, adapt))
		}
		assertNonIncreasing(t, cse, "killing pfh(LO)", vals)
	}
}

func TestDegradationPFHLOMonotoneInNPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for cse := 0; cse < 100; cse++ {
		cfg, hi, lo, _, _ := diffCase(rng)
		nLO := 1 + rng.Intn(4)
		df := 1.5 + 10*rng.Float64()
		vals := make([]float64, 0, 10)
		for np := 1; np <= 10; np++ {
			adapt, err := NewUniformAdaptation(cfg, hi, np)
			if err != nil {
				t.Fatalf("case %d: %v", cse, err)
			}
			vals = append(vals, cfg.DegradationPFHLOUniform(lo, nLO, adapt, df))
		}
		assertNonIncreasing(t, cse, "degradation pfh(LO)", vals)
	}
}

// TestMinAdaptProfileBisectionDifferential pins the galloping+bisection
// line-4 search to the linear reference scan on seeded random contexts,
// with requirements drawn to land the threshold at small, middling and
// unreachable n′ (including the +Inf and infeasible corners).
func TestMinAdaptProfileBisectionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for cse := 0; cse < 250; cse++ {
		cfg, hi, lo, _, _ := diffCase(rng)
		nLO := 1 + rng.Intn(4)
		mode := Kill
		df := 0.0
		if cse%2 == 1 {
			mode = Degrade
			df = 1.5 + 10*rng.Float64()
		}
		cache := NewAdaptationCache(cfg, hi, lo)
		// Sample the bound at a random n′ and perturb it into a
		// requirement, so the threshold falls anywhere in [1, MaxProfile]
		// — or nowhere.
		var requirement float64
		switch rng.Intn(6) {
		case 0:
			requirement = math.Inf(1)
		case 1:
			requirement = 0 // infeasible: pfh(LO) ≥ 0 always
		default:
			probe := 1 + rng.Intn(12)
			var v float64
			var err error
			if mode == Kill {
				adapt, aerr := NewUniformAdaptation(cfg, hi, probe)
				if aerr != nil {
					t.Fatalf("case %d: %v", cse, aerr)
				}
				v = cfg.KillingPFHLOUniform(lo, nLO, adapt)
			} else {
				v, err = cache.degradationPFHLOUniform(nLO, probe, df)
				if err != nil {
					t.Fatalf("case %d: %v", cse, err)
				}
			}
			requirement = v * math.Pow(10, 2*rng.Float64()-1)
		}
		nBis, errBis := cache.MinAdaptProfile(mode, nLO, df, requirement)
		nLin, errLin := cache.MinAdaptProfileLinear(mode, nLO, df, requirement)
		if (errBis == nil) != (errLin == nil) {
			t.Fatalf("case %d (%v req %g): error divergence: bisection %v vs linear %v",
				cse, mode, requirement, errBis, errLin)
		}
		if nBis != nLin {
			t.Fatalf("case %d (%v req %g): bisection n¹=%d vs linear n¹=%d",
				cse, mode, requirement, nBis, nLin)
		}
		if mode != Kill {
			continue
		}
		// Requirements at and just below the no-kill limit, below which
		// no pfh(n′) falls. At large n′ the certified interval cannot
		// settle them and the exact kernel can round a bound at the limit
		// to just below it, so only the kill probe's limit rule keeps the
		// search from accepting.
		ns := make([]int, len(lo))
		for i := range ns {
			ns[i] = nLO
		}
		limit := cfg.KillingPFHLOLimit(lo, ns)
		for _, req := range []float64{limit, limit * (1 - 1e-12)} {
			if req <= 0 {
				continue
			}
			nBis, errBis := cache.MinAdaptProfile(Kill, nLO, 0, req)
			nLin, errLin := cache.MinAdaptProfileLinear(Kill, nLO, 0, req)
			if errBis == nil || errLin == nil {
				t.Fatalf("case %d (limit %.17g, req %.17g): accepted a requirement at or below the no-kill limit: bisection n¹=%d (%v), linear n¹=%d (%v)",
					cse, limit, req, nBis, errBis, nLin, errLin)
			}
		}
	}
}

// TestMinProfile pins the line-4 search on synthetic monotone
// predicates: the least n in [1, MaxProfile] that meets it (0 when none
// does), at most 2⌈log₂ n⌉ + 1 probes (the gallop to n, then the
// bisection of its last doubling), and a probe error returned as is.
func TestMinProfile(t *testing.T) {
	run := func(first int) (got, probes int, err error) {
		got, err = MinProfile(func(n int) (bool, error) {
			if n < 1 || n > MaxProfile {
				t.Fatalf("probe at %d outside [1, MaxProfile]", n)
			}
			probes++
			return first > 0 && n >= first, nil
		})
		return got, probes, err
	}
	for _, tc := range []struct {
		name                string
		first, want, probes int
	}{
		{"never holds", 0, 0, 7},
		{"holds at 1", 1, 1, 1},
		{"first holds at MaxProfile", MaxProfile, MaxProfile, 12},
	} {
		got, probes, err := run(tc.first)
		if err != nil || got != tc.want || probes != tc.probes {
			t.Errorf("%s: got %d after %d probes (%v), want %d after %d",
				tc.name, got, probes, err, tc.want, tc.probes)
		}
	}
	for first := 1; first <= MaxProfile; first++ {
		got, probes, err := run(first)
		if err != nil || got != first {
			t.Fatalf("first=%d: got %d (%v)", first, got, err)
		}
		if limit := 2*bits.Len(uint(first-1)) + 1; probes > limit {
			t.Fatalf("first=%d: %d probes, want <= %d", first, probes, limit)
		}
	}
	boom := errors.New("boom")
	if _, err := MinProfile(func(int) (bool, error) { return false, boom }); err != boom {
		t.Errorf("probe error: got %v, want %v", err, boom)
	}
}

// TestAdaptEvalMatchesConfig pins the adaptation cache's eq. (5) and
// eq. (7) bounds to the stateless Config entry points, bit for bit, on
// uniform profiles: a fresh cache and one reused across Reset calls and
// repeated probes (its kernel scratch and pooled models carried over)
// must both reproduce the floats Config derives.
func TestAdaptEvalMatchesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var pooled *AdaptationCache
	for cse := 0; cse < 200; cse++ {
		cfg, hi, lo, _, _ := diffCase(rng)
		if pooled == nil {
			pooled = NewAdaptationCache(cfg, hi, lo)
		} else {
			pooled.Reset(cfg, hi, lo)
		}
		nLO := 1 + rng.Intn(4)
		df := 1.5 + 10*rng.Float64()
		for probe := 0; probe < 3; probe++ {
			nprime := 1 + rng.Intn(5)
			adapt, err := NewUniformAdaptation(cfg, hi, nprime)
			if err != nil {
				t.Fatalf("case %d: %v", cse, err)
			}
			wantKill := cfg.KillingPFHLOUniform(lo, nLO, adapt)
			wantDeg := cfg.DegradationPFHLOUniform(lo, nLO, adapt, df)
			for _, cache := range []*AdaptationCache{NewAdaptationCache(cfg, hi, lo), pooled} {
				kill, err := cache.killingPFHLOUniform(nLO, nprime)
				if err != nil {
					t.Fatalf("case %d: %v", cse, err)
				}
				if kill != wantKill {
					t.Errorf("case %d (n_LO=%d n'=%d): cache killing %.17g vs config %.17g",
						cse, nLO, nprime, kill, wantKill)
				}
				deg, err := cache.degradationPFHLOUniform(nLO, nprime, df)
				if err != nil {
					t.Fatalf("case %d: %v", cse, err)
				}
				if deg != wantDeg {
					t.Errorf("case %d (n_LO=%d n'=%d): cache degradation %.17g vs config %.17g",
						cse, nLO, nprime, deg, wantDeg)
				}
			}
		}
	}
}
