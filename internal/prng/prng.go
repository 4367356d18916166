// Package prng provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload generators and the simulator.
//
// Determinism matters more than statistical perfection here: a workload
// trace must be exactly reproducible from its seed so that every policy in
// an experiment sees byte-identical input. The generator is SplitMix64 for
// seeding feeding an xoshiro256** state, both public-domain algorithms.
package prng

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit PRNG (xoshiro256** seeded by SplitMix64).
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source deterministically derived from seed. Distinct seeds
// yield uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// Avoid the theoretical all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Mix folds any number of seed parts into one well-spread 64-bit seed by
// chaining each part through SplitMix64's finalizer. Unlike bare addition
// (where Mix(a, b) vs Mix(a+1, b-1) would collide), every input bit
// avalanches across the result, so derived streams stay uncorrelated.
// seedflow's suggested fix rewrites collision-prone seed arithmetic in the
// deterministic packages to calls of this helper.
//
//itslint:seedmixer
func Mix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	// One xoshiro256** step on the state held in locals, stored back in
	// one assignment: this form stays under the compiler's inlining
	// budget, which the in-place updates of r.s exceeded.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. Uses Lemire's multiply-shift rejection method.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	// Multiplying by the exact reciprocal of 2^53 is bit-identical to the
	// division (both are exact power-of-two scalings) and several times
	// cheaper; this runs a handful of times per generated record.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Zipf samples from a bounded Zipf-like distribution over [0, n) with
// exponent theta in (0, 2]. It uses the rejection-inversion-free power
// approximation common in storage-workload generators (YCSB-style): cheap,
// deterministic, and heavy-tailed enough to model hot/cold page behaviour.
//
// The rank is min(int(math.Pow(u, k)*float64(n)), n-1) for one uniform
// draw u, with k as below. estimateRank finds it without math.Pow for all
// but a few millionths of the draws; math.Pow decides the rest, so every
// rank is the one that formula gives.
func (r *Source) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation of a power-law: floor(n * u^(1/(1-theta)))
	// diverges for theta >= 1, so fold to an exponent in (0, 1).
	exp := theta
	if exp >= 0.99 {
		exp = 0.99
	}
	// Map u through u^(1/(1-exp)): small ranks strongly favoured.
	u, k := r.Float64(), 1/(1-exp)
	idx, ok := estimateRank(u, n, k)
	if !ok {
		idx = int(math.Pow(u, k) * float64(n))
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// estimateRank is int(math.Pow(u, k)*float64(n)) by filtered evaluation,
// with ok false where it cannot tell. powEstimate's v is within a relative
// zipfErrBound of math.Pow(u, k), and zipfEps is far wider than that bound
// plus the roundings of the products below, so the reference product
// lies between n·v·(1−ε) and n·v·(1+ε). Truncation is monotone: when
// both ends truncate to the same integer, so does the reference. n stays
// below 2^52, so no product leaves int's range.
func estimateRank(u float64, n int, k float64) (int, bool) {
	v := powEstimate(u, k)
	if !(v > 0) || n >= 1<<52 {
		return 0, false
	}
	x := float64(n) * v
	lo := int(x * (1 - zipfEps))
	return lo, lo == int(x*(1+zipfEps))
}

const (
	// zipfErrBound bounds powEstimate's relative error against math.Pow
	// wherever it returns an estimate with k ≤ 100, the largest exponent
	// Zipf's clamp allows. The analysis in powEstimate gives about 1e-12;
	// TestZipfEstimateBound checks the bound at rank boundaries.
	zipfErrBound = 0x1p-38
	// zipfEps is the filter's margin: 256 times zipfErrBound, so the
	// error and a few roundings of the products fit well inside it,
	// while the share of draws it sends to math.Pow stays in the
	// millionths.
	zipfEps = 0x1p-30
)

// Tables of powEstimate: for the mantissa interval [1+i/256, 1+(i+1)/256),
// the reciprocal and base-2 logarithm of its midpoint c_i; and 2^(j/256)
// for j in [0, 256) as float64 bits.
var (
	logInv [256]float64
	logC   [256]float64
	exp2T  [256]uint64
)

func init() {
	for i := range logInv {
		c := 1 + (float64(i)+0.5)/256
		logInv[i] = 1 / c
		logC[i] = math.Log2(c)
		exp2T[i] = math.Float64bits(math.Exp2(float64(i) / 256))
	}
}

// Polynomial coefficients of powEstimate.
const (
	ln2 = 0.693147180559945309417232121458176568
	// log2(1+r) ≈ r·(l1 + r·(l2 + r·(l3 + r·l4))), the degree-4 Taylor
	// polynomial of ln(1+r) divided by ln 2.
	l1 = 1 / ln2
	l2 = -1 / (2 * ln2)
	l3 = 1 / (3 * ln2)
	l4 = -1 / (4 * ln2)
	// 2^f ≈ 1 + f·(e1 + f·(e2 + f·e3)), the degree-3 Taylor polynomial
	// of e^(f·ln 2).
	e1 = ln2
	e2 = ln2 * ln2 / 2
	e3 = ln2 * ln2 * ln2 / 6
)

// powEstimate returns an estimate of u^k as 2^(k·log2 u), or 0 when u is
// not a normal number in (0, 1) or k·log2 u is not in (−1000, 1), NaN k
// included.
//
// log2 u = e + log2 c_i + log2(1+r), where u = m·2^e with m in [1, 2),
// c_i is the midpoint of m's table interval and r = m/c_i − 1, so
// |r| ≤ 2^-9. The dropped terms of the log polynomial are below
// |r|^5/5/(1−|r|) < 5.7e-15 in ln units; times k ≤ 100 that is a relative
// error below 5.7e-13 in the result. 2^y = 2^q · 2^(j/256) · 2^f with
// 256·y = 256·q + j + 256·f rounded to the nearest integer, so
// |f| ≤ 2^-9 and the dropped terms of the exp polynomial are below
// (|f|·ln 2)^4/24 < 1.5e-13. The roundings add at most |y|·3.3e-16 <
// 3.3e-13 (|y| < 1000) and a few 1e-16, and math.Pow itself is within
// about 2e-14 of u^k here: in all below 1.1e-12, under zipfErrBound.
func powEstimate(u, k float64) float64 {
	b := math.Float64bits(u)
	ex := b >> 52 // the sign bit too: a negative u fails the test below
	if ex-1 >= 1022 {
		return 0 // zero, subnormal, ≥ 1, negative, Inf or NaN
	}
	i := b >> 44 & 255
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	r := m*logInv[i] - 1
	y := k * (float64(int(ex)-1023) + logC[i] + r*(l1+r*(l2+r*(l3+r*l4))))
	if !(y > -1000 && y < 1) {
		return 0
	}
	t := y * 256
	// Adding 1.5·2^52 rounds t to an integer held in the low bits of kd.
	kd := t + 0x1.8p52
	ki := math.Float64bits(kd)
	f := (t - (kd - 0x1.8p52)) * (1.0 / 256)
	// 2^q·2^(j/256) by adding q to the exponent field of exp2T[j]; the
	// shift drops the constant's bits and keeps q's two's complement.
	scale := math.Float64frombits(exp2T[ki&255] + ki>>8<<52)
	return scale * (1 + f*(e1+f*(e2+f*e3)))
}
