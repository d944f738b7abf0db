package cxl

// rngMixSeed replaces a zero seed: an xorshift state of zero is a fixed
// point (the stream would be all zeros). The constant is the usual
// splitmix64 golden-ratio increment.
const rngMixSeed = 0x9E3779B97F4A7C15

// rng is a small deterministic xorshift64* generator driving the tenant
// access streams. The zero value is not usable; call newRNG. It keeps
// the scenario off the global math/rand source (banned by simlint's
// wallclock analyzer) and makes the draw sequence part of the run's
// reproducible state: equal seeds give byte-identical scenarios.
type rng struct {
	s uint64
}

// newRNG returns a generator seeded with seed (a zero seed is remapped
// to a fixed non-zero constant).
func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = rngMixSeed
	}
	return &rng{s: seed}
}

// Next returns the next 64-bit draw.
func (r *rng) Next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a draw in [0, n). It panics when n is not positive. The
// modulo bias is irrelevant at the stream sizes the scenario draws from
// (n far below 2^32).
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("cxl: Intn on non-positive n")
	}
	return int(r.Next() % uint64(n))
}
