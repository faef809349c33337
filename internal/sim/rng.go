// Package sim holds small simulation-kernel utilities shared by the
// traffic generators and the system harness: a fast deterministic RNG
// (results must be reproducible run-to-run regardless of map iteration
// order or platform) and helpers for weighted choices.
package sim

// RNG is a deterministic xorshift64* pseudo-random generator. The zero
// value is not usable; construct with NewRNG.
type RNG struct {
	s uint64
}

// NewRNG seeds a generator; a zero seed is remapped to a fixed non-zero
// constant (xorshift state must never be zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Pick returns a uniformly chosen element of xs.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Jitter returns v scaled by a uniform factor in [1-f, 1+f], minimum 1.
func Jitter(r *RNG, v int64, f float64) int64 {
	if v <= 0 {
		return 1
	}
	lo := float64(v) * (1 - f)
	hi := float64(v) * (1 + f)
	out := int64(lo + (hi-lo)*r.Float64())
	if out < 1 {
		out = 1
	}
	return out
}
