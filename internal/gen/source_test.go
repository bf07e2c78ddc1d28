package gen

import (
	"math"
	"math/rand"
	"testing"
)

// sourceOutputs is how many outputs each seed is compared over: past
// the 607-word lag, so every word has been fed back at least twice.
const sourceOutputs = 1500

// checkSourceMatches compares n outputs of source and of
// rand.NewSource at seed, mixing Uint64 and Int63 calls.
func checkSourceMatches(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	var got source
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %d, math/rand gives %d", seed, i, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins the drawer's source to math/rand: for
// every seed it must give the stream rand.NewSource gives, so the
// Drawer draws the sets math/rand would.
func TestSourceMatchesMathRand(t *testing.T) {
	edges := []int64{
		0, 1, -1, seed0, lehmerM, -lehmerM, 1 << 31,
		math.MinInt64, math.MaxInt64,
	}
	for _, seed := range edges {
		checkSourceMatches(t, seed, sourceOutputs)
	}
	seeds := rand.New(rand.NewSource(20261020))
	for i := 0; i < 2000; i++ {
		checkSourceMatches(t, int64(seeds.Uint64()), sourceOutputs)
	}
}

// TestSourceReseed checks that Seed fully resets the state: a reused
// source gives the same stream as a fresh one.
func TestSourceReseed(t *testing.T) {
	var s source
	s.Seed(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(7)
	want := rand.NewSource(7)
	for i := 0; i < sourceOutputs; i++ {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("reseeded source: Int63 #%d = %d, math/rand gives %d", i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand extends TestSourceMatchesMathRand to
// arbitrary seeds, comparing up to 2,000 outputs each.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1500))
	f.Add(int64(-lehmerM), uint16(700))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSourceMatches(t, seed, int(n%2001))
	})
}
