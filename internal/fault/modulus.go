package fault

import (
	"math"
	"math/bits"
	"math/rand"
)

// modulus draws integers uniform in [0, n) exactly as math/rand's
// (*Rand).Intn(n) does: the same value from the same Int63 calls. For n
// below 2^31 Intn masks a 31-bit draw when n is a power of two, and
// otherwise redraws any value above 2^31−1 − 2^31 mod n and returns the
// rest mod n, two hardware divisions per draw. A modulus divides once,
// when it is built: it keeps the rejection bound and ⌈2^64/n⌉, from
// which the remainder of a 32-bit value is a multiply-high (Lemire, Kaser
// & Kurz, "Faster Remainder by Direct Computation", 2019).
type modulus struct {
	n int
	// bound is Int31n's rejection bound, for n not a power of two.
	bound uint32
	// mask is n−1 for a power of two n, or −1 when Intn itself draws:
	// for n <= 0 it panics, and for n >= 2^31 it draws 63 bits.
	mask int32
	// recip is ⌈2^64/n⌉ for n not a power of two, and 0 otherwise.
	recip uint64
}

// newModulus returns the modulus of n. It never divides by zero: a range
// Intn rejects panics at the first draw, not here.
func newModulus(n int) modulus {
	switch {
	case n <= 0 || n > math.MaxInt32:
		return modulus{n: n, mask: -1}
	case n&(n-1) == 0:
		return modulus{n: n, mask: int32(n - 1)}
	}
	return modulus{
		n:     n,
		bound: 1<<31 - 1 - (1<<31)%uint32(n),
		recip: math.MaxUint64/uint64(n) + 1,
	}
}

// intn returns rng.Intn(m.n), leaving rng where Intn would.
func (m *modulus) intn(rng *rand.Rand) int {
	if m.recip != 0 {
		v := uint32(rng.Int63() >> 32)
		for v > m.bound {
			v = uint32(rng.Int63() >> 32)
		}
		hi, _ := bits.Mul64(m.recip*uint64(v), uint64(m.n))
		return int(hi)
	}
	if m.mask >= 0 {
		return int(int32(rng.Int63()>>32) & m.mask)
	}
	return rng.Intn(m.n)
}
