package gen

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator
// (rand.NewSource) with a cheaper Seed. The Drawer reseeds it once per
// drawn set, and math/rand's Seed dominated the Fig. 3 campaign's CPU:
// it fills the 607-word state through 1,841 serial Lehmer steps
// x·48271 mod (2³¹−1), each computed with Schrage's two constant
// divisions. Here each step is one 64-bit multiply and a Mersenne fold.
// The seeding loop, the cooked table it XORs in and the Uint64/Int63
// bodies are math/rand's, so every seed gives the stream
// rand.NewSource gives (TestSourceMatchesMathRand,
// FuzzSourceMatchesMathRand) and every drawn set is unchanged.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen  = 607       // math/rand's rngLen: the lag
	srcTap  = 273       // math/rand's rngTap: the short tap
	srcMask = 1<<63 - 1 // Int63's mask
	lehmerM = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA = 48271     // the Lehmer multiplier
	seed0   = 89482311  // math/rand's stand-in for a seed ≡ 0 (mod lehmerM)
	warmUp  = 20        // Lehmer steps math/rand discards before the first word
)

var _ rand.Source64 = (*source)(nil)

// cooked is math/rand's rngCooked table, recovered at package init from
// the first srcLen outputs of rand.NewSource(1) rather than copied.
var cooked = cookedTable()

// cookedTable recovers math/rand's cooked table. The k-th output of a
// fresh source is the sum it writes to vec[feed] with feed =
// srcLen−srcTap−1−k and tap = srcLen−1−k (mod srcLen), so the first
// srcLen outputs write every word once and are the final state. Undoing
// those additions in reverse gives the seeded state, and XORing off the
// seed-1 Lehmer words leaves the table.
func cookedTable() [srcLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var t [srcLen]int64
	for k := 0; k < srcLen; k++ {
		t[(2*srcLen-srcTap-1-k)%srcLen] = int64(ref.Uint64())
	}
	for k := srcLen - 1; k >= 0; k-- {
		t[(2*srcLen-srcTap-1-k)%srcLen] -= t[srcLen-1-k]
	}
	var words source
	words.seed(1, &[srcLen]int64{})
	for i := range t {
		t[i] ^= words.vec[i]
	}
	return t
}

// lehmer is one step x·48271 mod (2³¹−1) for x in [1, 2³¹−2]. The
// product is below 2⁴⁷, and 2³¹ ≡ 1 (mod 2³¹−1) folds it to below
// 2³¹ + 2¹⁶, which one conditional subtract reduces.
func lehmer(x uint64) uint64 {
	v := x * lehmerA
	v = v&lehmerM + v>>31
	if v >= lehmerM {
		v -= lehmerM
	}
	return v
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) { s.seed(seed, &cooked) }

// seed is math/rand's seeding loop with each word XORed with xor[i]:
// the seed reduced into [1, 2³¹−2], warmUp discarded Lehmer steps, then
// three steps per word.
func (s *source) seed(seed int64, xor *[srcLen]int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seed0
	}
	x := uint64(seed)
	for i := 0; i < warmUp; i++ {
		x = lehmer(x)
	}
	for i := range s.vec {
		x = lehmer(x)
		u := int64(x) << 40
		x = lehmer(x)
		u ^= int64(x) << 20
		x = lehmer(x)
		u ^= int64(x)
		s.vec[i] = u ^ xor[i]
	}
}

// Uint64 is math/rand's rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & srcMask) }
