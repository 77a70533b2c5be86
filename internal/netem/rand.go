package netem

import "math/rand"

// The simulator's randomness is math/rand's additive lagged-Fibonacci
// generator, reproduced bit for bit but seeded in O(1).
//
// math/rand's Seed fills a 607-word register with 1,841 dependent steps
// of the Lehmer generator x' = 48271·x mod (2³¹−1), starting from the
// reduced seed x₀: word i is
//
//	u_i = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i]
//
// where x_n = x₀·48271ⁿ mod (2³¹−1). Each word is therefore a closed
// form of the seed, so lazySource computes a word from a power table
// the first time the generator touches it. A trial draws a few dozen
// numbers, so it materialises a few dozen words instead of paying for
// all 607 up front.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerM  = 1<<31 - 1
	lehmerA  = 48271
	rngSteps = 20 + 3*rngLen // Lehmer steps one math/rand Seed takes
)

var (
	// lehmerPow[n] = 48271ⁿ mod (2³¹−1).
	lehmerPow [rngSteps + 1]uint64
	// rngCooked is math/rand's unexported register whitening table,
	// recovered at init from the library's own output (see init).
	rngCooked [rngLen]uint64
)

func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = lehmerPow[n-1] * lehmerA % lehmerM
	}
	// Recover the register math/rand seeds for probe from its first
	// rngLen outputs y₁…y₆₀₇. Output k adds the words at feed index
	// (334−k) mod 607 and tap index 607−k and stores the sum at the
	// feed; the tap index of output k was the feed of output k−273. So
	// for k > 273 the tap holds y_{k−273} and the feed word is
	// y_k − y_{k−273}; for k ≤ 273 the tap word is one recovered by the
	// k > 273 outputs. XOR-ing out the Lehmer bits leaves the table.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var y [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		y[k] = src.Uint64()
	}
	var reg [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		reg[(rngLen+rngLen-rngTap-k)%rngLen] = y[k] - y[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[rngLen-rngTap-k] = y[k] - reg[rngLen-k]
	}
	var s lazySource
	s.Seed(probe)
	for i := range rngCooked {
		rngCooked[i] = reg[i] ^ s.lehmerBits(i)
	}
}

// NewRand returns a *rand.Rand whose stream is identical to
// rand.New(rand.NewSource(seed)) but whose seeding — here and through
// (*rand.Rand).Seed — costs O(1).
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is a rand.Source64 producing math/rand's stream with the
// register materialised word by word on first use.
type lazySource struct {
	x0        uint64 // reduced seed, in [1, 2³¹−2]
	tap, feed int
	// ready marks the register words computed since the last Seed;
	// vec[i] is garbage until its bit is set.
	ready [(rngLen + 63) / 64]uint64
	vec   [rngLen]uint64
}

// Seed implements rand.Source with math/rand's seed reduction.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.ready = [len(s.ready)]uint64{}
}

// lehmer returns x_n, the seed advanced n Lehmer steps.
func (s *lazySource) lehmer(n int) uint64 { return s.x0 * lehmerPow[n] % lehmerM }

// lehmerBits is register word i before whitening.
func (s *lazySource) lehmerBits(i int) uint64 {
	n := 21 + 3*i
	return s.lehmer(n)<<40 ^ s.lehmer(n+1)<<20 ^ s.lehmer(n+2)
}

// word returns register word i, computing its seeded value on first use.
func (s *lazySource) word(i int) uint64 {
	if m := uint64(1) << (i & 63); s.ready[i>>6]&m == 0 {
		s.ready[i>>6] |= m
		s.vec[i] = s.lehmerBits(i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64: one step of the lagged-Fibonacci
// recurrence, as math/rand takes it.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
