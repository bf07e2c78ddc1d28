package safety

import (
	"math"
	"sync"
	"testing"

	"repro/internal/criticality"
)

// TestAdaptationCacheConsistency checks that cached values equal the
// uncached evaluations and that the hit/miss counters track lookups.
func TestAdaptationCacheConsistency(t *testing.T) {
	cfg := DefaultConfig()
	s31 := example31()
	hi, lo := s31.ByClass(criticality.HI), s31.ByClass(criticality.LO)
	cache := NewAdaptationCache(cfg, hi, lo)

	for np := 1; np <= 3; np++ {
		adapt, err := NewUniformAdaptation(cfg, hi, np)
		if err != nil {
			t.Fatal(err)
		}
		for nLO := 1; nLO <= 2; nLO++ {
			want := cfg.KillingPFHLOUniform(lo, nLO, adapt)
			for pass := 0; pass < 2; pass++ { // second pass must hit
				got, err := cache.killingPFHLOUniform(nLO, np)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n'=%d nLO=%d pass %d: cached kill %.17g, direct %.17g", np, nLO, pass, got, want)
				}
			}
			want = cfg.DegradationPFHLOUniform(lo, nLO, adapt, 6)
			got, err := cache.degradationPFHLOUniform(nLO, np, 6)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(got, want); d > 1e-15 {
				t.Fatalf("n'=%d nLO=%d: cached degrade %.17g, direct %.17g", np, nLO, got, want)
			}
		}
	}

	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	// Misses are bounded by the distinct keys: 3 models + 6 kill bounds.
	if st.Misses > 9 {
		t.Fatalf("too many misses for 9 distinct keys: %+v", st)
	}
	if _, err := cache.degradationPFHLOUniform(1, 1, 0.5); err == nil {
		t.Fatal("df <= 1 must be rejected")
	}
}

// TestAdaptationCacheMinAdaptProfile pins the delegation: the cached
// search must agree with Config.MinAdaptProfile (which itself delegates,
// so cross-check against a hand scan too).
func TestAdaptationCacheMinAdaptProfile(t *testing.T) {
	cfg := DefaultConfig()
	s31 := example31()
	hi, lo := s31.ByClass(criticality.HI), s31.ByClass(criticality.LO)
	cache := NewAdaptationCache(cfg, hi, lo)
	for _, req := range []float64{1e-3, 1e-6, 1e-9} {
		got, err1 := cache.MinAdaptProfile(Kill, 2, 0, req)
		want, err2 := cfg.MinAdaptProfile(Kill, hi, lo, 2, 0, req)
		if (err1 == nil) != (err2 == nil) || got != want {
			t.Fatalf("req %g: cache (%d,%v) vs config (%d,%v)", req, got, err1, want, err2)
		}
	}
}

// TestAdaptationCacheConcurrent exercises the cache from many goroutines
// (run with -race) and checks all of them observe identical values.
func TestAdaptationCacheConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	s31 := example31()
	hi, lo := s31.ByClass(criticality.HI), s31.ByClass(criticality.LO)
	cache := NewAdaptationCache(cfg, hi, lo)
	const G = 8
	vals := make([]float64, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := cache.killingPFHLOUniform(2, 1+g%3)
			if err != nil {
				t.Error(err)
				return
			}
			w, err := cache.killingPFHLOUniform(2, 1+g%3)
			if err != nil || v != w {
				t.Errorf("goroutine %d: unstable cached value %g vs %g (%v)", g, v, w, err)
				return
			}
			vals[g] = v
		}(g)
	}
	wg.Wait()
	for g := 0; g < G; g++ {
		if vals[g] != vals[g%3] {
			t.Fatalf("goroutines %d and %d disagree: %g vs %g", g, g%3, vals[g], vals[g%3])
		}
	}
}

// TestAdaptationCacheRejectsUnknownMode: a mode other than Kill or
// Degrade is an error on the read path, the decision path and the line-4
// search, not a silent eq. (7) evaluation.
func TestAdaptationCacheRejectsUnknownMode(t *testing.T) {
	cfg := DefaultConfig()
	s31 := example31()
	cache := NewAdaptationCache(cfg, s31.ByClass(criticality.HI), s31.ByClass(criticality.LO))
	const mode AdaptMode = 7
	if v, err := cache.PFHLOUniform(mode, 1, 2, 6); err == nil {
		t.Errorf("PFHLOUniform answered %g for mode %d", v, mode)
	}
	for _, req := range []float64{1e-5, math.Inf(1)} {
		if ok, err := cache.MeetsLO(mode, 1, 2, 6, req); err == nil {
			t.Errorf("MeetsLO answered %v for mode %d at requirement %g", ok, mode, req)
		}
	}
	if n, err := cache.MinAdaptProfile(mode, 1, 6, 1e-5); err == nil {
		t.Errorf("MinAdaptProfile answered n¹=%d for mode %d", n, mode)
	}
}
