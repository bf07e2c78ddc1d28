package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/mcsched"
	"repro/internal/safety"
	"repro/internal/task"
)

func randomSets(tb testing.TB, n int, u float64) []*task.Set {
	tb.Helper()
	p := gen.PaperParams(criticality.LevelB, criticality.LevelD, u, 1e-3)
	sets := make([]*task.Set, 0, n)
	for i := int64(0); len(sets) < n; i++ {
		s, err := gen.TaskSet(rand.New(rand.NewSource(1000+i)), p)
		if err != nil {
			continue
		}
		sets = append(sets, s)
	}
	return sets
}

// TestFTSScratchMatchesAllocating runs Algorithm 1 with and without a
// pooled Scratch on a stream of random sets and requires identical
// verdicts, profiles and bounds (Converted is nil by contract under
// Scratch).
func TestFTSScratchMatchesAllocating(t *testing.T) {
	scr := NewScratch()
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	for _, s := range randomSets(t, 40, 0.85) {
		want, err := FTS(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		optScr := opt
		optScr.Scratch = scr
		got, err := FTS(s, optScr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Converted != nil {
			t.Fatal("scratch mode must leave Converted nil")
		}
		got.Converted = want.Converted
		if got != want {
			t.Fatalf("scratch FTS diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestMaxSchedProfileScratchAcrossSets runs line 8 through one Scratch
// on a stream of different sets, so each search starts on the previous
// set's conversion, and requires the nil-scratch answer for every set.
// A search that patched before building its first probe in full would
// test the previous set's tasks here.
func TestMaxSchedProfileScratchAcrossSets(t *testing.T) {
	scr := NewScratch()
	// Alternate low and high utilizations so consecutive sets differ in
	// size and in verdict.
	var sets []*task.Set
	lows, highs := randomSets(t, 30, 0.5), randomSets(t, 30, 0.95)
	for i := range lows {
		sets = append(sets, lows[i], highs[i])
	}
	tests := []mcsched.Test{mcsched.EDFVD{}, mcsched.EDFVDDegrade{DF: 2}}
	for i, s := range sets {
		// From n_HI = 4 down, so a set's first search asks n′ = 1 below
		// n_HI on the previous set's conversion.
		for nHI := 4; nHI >= 1; nHI-- {
			for _, test := range tests {
				p := Profiles{NHI: nHI, NLO: 1, NPrime: nHI}
				want, err := MaxSchedProfile(s, nil, test, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := MaxSchedProfile(s, scr, test, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("set %d n_HI=%d (%s): n²_HI %d through a reused Scratch, %d without",
						i, nHI, test.Name(), got, want)
				}
			}
		}
	}
}

// TestFTSPerTaskScratchMatchesAllocating pins that FTSPerTask does not
// read Options.Scratch: with and without one, the results are deeply
// equal, Converted included.
func TestFTSPerTaskScratchMatchesAllocating(t *testing.T) {
	scr := NewScratch()
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 2}
	for _, s := range randomSets(t, 25, 0.85) {
		want, err := FTSPerTask(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		optScr := opt
		optScr.Scratch = scr
		got, err := FTSPerTask(s, optScr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FTSPerTask with a Scratch diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// pooledFTS runs FTS over the sets the way the Monte-Carlo engines do:
// one Scratch for the line-8 conversions and one adaptation cache,
// rebound to each set with Reset, passed as Options.Cache.
func pooledFTS(tb testing.TB, sets []*task.Set, opt Options, cache *safety.AdaptationCache) {
	for _, s := range sets {
		cache.Reset(opt.Safety, s.ByClass(criticality.HI), s.ByClass(criticality.LO))
		opt.Cache = cache
		if _, err := FTS(s, opt); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFTSScratchZeroAllocs asserts the pooled FTS path — a Scratch for
// the conversions plus a caller-bound cache rebound per set — is
// allocation-free in the steady state.
// (Degrade mode pays a fixed 3 allocs/call outside the arenas — the
// interface boxing of the default EDFVDDegrade test and its Sprintf-built
// Name() — so the assertion runs on the kill path, where the default test
// is the zero-size EDFVD.)
func TestFTSScratchZeroAllocs(t *testing.T) {
	sets := randomSets(t, 5, 0.85)
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Scratch: NewScratch()}
	cache := safety.NewAdaptationCache(opt.Safety, nil, nil)
	// Warm the pools: arenas grow to the high-water mark on the first
	// pass over the stream.
	pooledFTS(t, sets, opt, cache)
	if avg := testing.AllocsPerRun(10, func() { pooledFTS(t, sets, opt, cache) }); avg != 0 {
		t.Errorf("FTS with scratch allocates %.1f allocs/run", avg)
	}
}

// benchFTS runs Algorithm 1 on 10 random sets: with a Scratch, through
// the pooled path of pooledFTS; with nil, with a fresh cache and
// conversions per call.
func benchFTS(b *testing.B, scr *Scratch) {
	sets := randomSets(b, 10, 0.85)
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Scratch: scr}
	cache := safety.NewAdaptationCache(opt.Safety, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scr != nil {
			pooledFTS(b, sets, opt, cache)
			continue
		}
		for _, s := range sets {
			if _, err := FTS(s, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFTSScratch measures Algorithm 1 on 10 random sets through the
// pooled path (steady-state allocation-free).
func BenchmarkFTSScratch(b *testing.B) { benchFTS(b, NewScratch()) }

// BenchmarkFTSAllocating is the same workload with transient per-call
// state; compare allocs/op against BenchmarkFTSScratch.
func BenchmarkFTSAllocating(b *testing.B) { benchFTS(b, nil) }
