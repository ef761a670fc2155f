// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling primitives used throughout the k-means||
// implementation.
//
// Determinism matters here more than raw speed: the paper's experiments are
// medians over 11 runs, and the parallel implementation must produce the same
// result for a given seed regardless of how many workers execute it. The
// generator is xoshiro256** (Blackman & Vigna), seeded through splitmix64 so
// that any 64-bit seed — including 0 — yields a well-mixed state. Split
// derives an independent stream from a parent stream and a stream index,
// which lets parallel chunks draw from per-chunk generators whose output does
// not depend on scheduling order.
package rng

import "math"

// Rng is a xoshiro256** generator. It is NOT safe for concurrent use; use
// Split to derive independent per-goroutine generators instead of sharing.
type Rng struct {
	s [4]uint64
	// cached spare normal for NormFloat64 (polar method generates pairs)
	spare    float64
	hasSpare bool
}

// splitmix64 advances x and returns a mixed output. It is the recommended
// seeding primitive for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give statistically
// independent streams; the same seed always gives the same stream.
func New(seed uint64) *Rng {
	r := &Rng{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[3] = 1
	}
	return r
}

// Split returns a new generator whose stream is independent of r's for all
// practical purposes. The child is keyed by both the parent's current state
// and the caller-supplied stream index, so Split(i) called on identical
// parents with distinct i gives distinct streams. The parent is advanced
// once, so successive Splits also differ.
func (r *Rng) Split(stream uint64) *Rng {
	x := r.Uint64() ^ (stream * 0xa3ec647659359acd)
	return New(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rng) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Uses Lemire's
// multiply-shift rejection method to avoid modulo bias.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Int63 returns a non-negative random 63-bit integer.
func (r *Rng) Int63() int64 { return int64(r.Uint64() >> 1) }

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. Pairs are generated and the spare is cached.
func (r *Rng) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rng) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z.
func (r *Rng) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, as in math/rand.
func (r *Rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// State is the serializable form of an Rng, for checkpointing a computation
// mid-stream (distkm's coordinator persists its driver RNG after every
// sampling round). Go's encoding/json round-trips uint64 and finite float64
// values exactly, so a State that travels through JSON restores the stream
// bit for bit.
type State struct {
	S        [4]uint64 `json:"s"`
	Spare    float64   `json:"spare,omitempty"`
	HasSpare bool      `json:"has_spare,omitempty"`
}

// State captures the generator's full state, including the cached spare
// normal (NormFloat64 generates pairs; dropping the spare would shift every
// subsequent draw).
func (r *Rng) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// FromState reconstructs the generator a State captured: it continues the
// stream exactly where State() left off.
func FromState(st State) *Rng {
	r := &Rng{s: st.S, spare: st.Spare, hasSpare: st.HasSpare}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[3] = 1 // xoshiro must not run from the all-zero state
	}
	return r
}

// PointRand returns a uniform [0,1) variate that is a pure function of
// (seed, round, i). The k-means|| Bernoulli sampling step uses it so that
// whether point i is selected in a given round depends only on the run seed —
// not on worker count, chunking, or which machine owns the point. The
// in-process (core, and mrkm through it) and networked (distkm) backends
// share it, which is what makes their candidate sets identical for equal
// seeds.
func PointRand(seed uint64, round, i int) float64 {
	x := seed ^ (uint64(round)+1)*0x9e3779b97f4a7c15 ^ (uint64(i)+1)*0xbf58476d1ce4e5b9
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
