package prng

import (
	"math"
	"math/bits"
	"testing"
)

// zipfReference is Zipf's rank formula with math.Pow, as Zipf computed it
// before its filtered evaluation: the rank every draw must reproduce.
func zipfReference(u float64, n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	exp := theta
	if exp >= 0.99 {
		exp = 0.99
	}
	v := math.Pow(u, 1/(1-exp))
	idx := int(v * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// zipfThetas are the exponents the workloads draw with: the four Zipf
// profiles' 0.55–0.70, algo's graph generator at 0.7 among them.
var zipfThetas = []float64{0.55, 0.60, 0.65, 0.70}

// zipfDraw is one n that Zipf draws over in the benchmark, itsbench or
// the fleets, with the exponent of the profile that draws over it.
type zipfDraw struct {
	n     int
	theta float64
}

// zipfPageCounts are the page counts of the four Zipf profiles
// (commdetect 36 MiB at θ 0.70, randomwalk 96 at 0.55, graph500sssp 88 at
// 0.60, pagerank 80 at 0.65) at scale 0.25 (paper-grid, itsbench -exp all
// and -exp ablate), 0.4 (smp4-itrc), 0.005 (the benchmark's fleets:
// tenant scale 0.02 × 0.25) and 0.01 (itsbench -exp fleet at -scale
// 0.5), as workload.ProfileFor scales them.
func zipfPageCounts() []zipfDraw {
	var ds []zipfDraw
	for _, scale := range []float64{0.25, 0.4, 0.005, 0.01} {
		for i, mib := range []uint64{36, 96, 88, 80} {
			n := int(uint64(float64(mib<<20)*scale) / 4096)
			ds = append(ds, zipfDraw{n, []float64{0.70, 0.55, 0.60, 0.65}[i]})
		}
	}
	return ds
}

// inverse returns the multiplicative inverse of the odd a modulo 2^64.
func inverse(a uint64) uint64 {
	x := a // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

var inv9, inv5 = inverse(9), inverse(5)

// yielding returns a Source whose next Uint64 is out, by solving the
// xoshiro256** output function rotl(s1·5, 7)·9 for s1. The other state
// words are arbitrary and nonzero.
func yielding(out uint64) Source {
	s1 := bits.RotateLeft64(out*inv9, -7) * inv5
	return Source{s: [4]uint64{0x243f6a8885a308d3, s1, 0x13198a2e03707344, 0xa4093822299f31d0}}
}

// checkZipf fails unless Zipf, drawing the uniform x·2^-53, returns the
// reference rank and consumes exactly one Uint64 (none for n ≤ 1).
func checkZipf(t *testing.T, x uint64, n int, theta float64) {
	src := yielding(x << 11)
	want := src
	if n > 1 {
		want.Uint64()
	}
	u := float64(x) * (1.0 / (1 << 53))
	if got, ref := src.Zipf(n, theta), zipfReference(u, n, theta); got != ref {
		t.Fatalf("Zipf(n=%d, theta=%v) at u=%v (x=%d) = %d, math.Pow gives %d", n, theta, u, x, got, ref)
	}
	if src != want {
		t.Fatalf("Zipf(n=%d, theta=%v) at x=%d consumed the wrong number of draws", n, theta, x)
	}
}

// boundaryDraws calls fn with every uniform x (u = x·2^-53) at 0, ±1, ±2,
// ±4, … ±2^40 steps from the largest x below each rank boundary of n
// under exponent k: the u where n·u^k crosses the integer b is
// (b/n)^(1/k).
func boundaryDraws(n int, k float64, stride int, fn func(x uint64)) {
	for b := 1; b < n; b += stride {
		x0 := uint64(math.Pow(float64(b)/float64(n), 1/k) * (1 << 53))
		fn(x0)
		for d := uint64(1); d <= 1<<40; d <<= 1 {
			if x0+d < 1<<53 {
				fn(x0 + d)
			}
			if d <= x0 {
				fn(x0 - d)
			}
		}
	}
}

// TestZipfMatchesPow: next to the rank boundaries of every page count the
// workloads draw over, under each of their exponents, Zipf returns
// math.Pow's rank, from 1 step to 2^40 steps of the generator's 2^-53
// grid away. Every boundary is tried under the exponent of the profile
// that draws over it, every 8th under the other three. Both sides of the
// filter's decision occur: the draws closest to a boundary go to
// math.Pow. So do the edge cases: the exponents Zipf clamps or passes
// through unchanged (θ ≤ 0, θ ≥ 0.99, ±Inf, NaN), n ∈ {0, 1, 2} and n
// past the filter's range, and the extreme draws u = 0, 2^-53 and
// 1 − 2^-53.
func TestZipfMatchesPow(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	var fast, fallback int
	for _, d := range zipfPageCounts() {
		for _, theta := range zipfThetas {
			k, n := 1/(1-theta), d.n
			step := stride
			if theta != d.theta {
				step *= 8
			}
			boundaryDraws(n, k, step, func(x uint64) {
				if _, ok := estimateRank(float64(x)*(1.0/(1<<53)), n, k); ok {
					fast++
				} else {
					fallback++
				}
				checkZipf(t, x, n, theta)
			})
		}
	}
	if fast == 0 || fallback == 0 {
		t.Fatalf("filter decisions: %d estimated, %d by math.Pow; want both", fast, fallback)
	}
	t.Logf("%d draws estimated, %d by math.Pow", fast, fallback)

	thetas := []float64{0, -0.5, -3, math.Inf(-1), 0.99, 0.995, 1, 2, math.Inf(1), math.NaN(), 0.7}
	xs := []uint64{0, 1, 2, 1 << 20, 1 << 52, 1<<53 - 2, 1<<53 - 1}
	r := New(0x21FF)
	for i := 0; i < 200; i++ {
		xs = append(xs, r.Uint64()>>11)
	}
	for _, theta := range thetas {
		for _, n := range []int{-1, 0, 1, 2, 3, 5120, 1 << 40, 1<<53 + 1, math.MaxInt} {
			for _, x := range xs {
				checkZipf(t, x, n, theta)
			}
		}
	}
}

// TestZipfEstimateBound states the bound the filter relies on:
// powEstimate is within a relative zipfErrBound of math.Pow wherever it
// returns an estimate, for every exponent Zipf's clamp lets through (up
// to k = 100 at θ = 0.99); and zipfEps exceeds the bound by more than the
// three roundings of the filter's products. The inputs are the draws next
// to rank boundaries plus random draws over the whole grid, whose tiny u
// reach the estimate's |k·log2 u| < 1000 cut-off at k = 100.
func TestZipfEstimateBound(t *testing.T) {
	if zipfEps < zipfErrBound+4*0x1p-53 {
		t.Fatalf("zipfEps %g leaves no room for zipfErrBound %g and the products' rounding", zipfEps, zipfErrBound)
	}
	worst, estimated := 0.0, 0
	check := func(x uint64, k float64) {
		u := float64(x) * (1.0 / (1 << 53))
		v := powEstimate(u, k)
		if v == 0 {
			return
		}
		estimated++
		p := math.Pow(u, k)
		e := math.Abs(v/p - 1)
		if !(e <= zipfErrBound) {
			t.Fatalf("powEstimate(%v, %v) = %v, math.Pow %v: relative error %.3g over the bound %.3g", u, k, v, p, e, zipfErrBound)
		}
		worst = max(worst, e)
	}
	ks := []float64{1 / (1 - 0.99), 1 / (1 - 0.9), 1, 1 / (1 - -2), 1 / (1 - math.Inf(-1))}
	for _, theta := range zipfThetas {
		ks = append(ks, 1/(1-theta))
	}
	for _, d := range zipfPageCounts() {
		k := 1 / (1 - d.theta)
		boundaryDraws(d.n, k, 3, func(x uint64) { check(x, k) })
	}
	r := New(0xB0D)
	for _, k := range ks {
		for i := 0; i < 20000; i++ {
			x := r.Uint64() >> 11
			check(x, k)
			check(x>>(i%53), k) // down to the smallest draws
		}
	}
	if estimated == 0 {
		t.Fatal("powEstimate returned no estimate")
	}
	t.Logf("largest relative error %.3g over %d estimates (bound %.3g)", worst, estimated, zipfErrBound)
}

// FuzzZipfMatchesPow: for any draw (the raw Uint64 Zipf consumes), n and
// θ, Zipf returns math.Pow's rank and consumes one draw.
func FuzzZipfMatchesPow(f *testing.F) {
	f.Add(uint64(0), 5120, 0.65)
	f.Add(uint64(1)<<63, 6144, 0.55)
	f.Add(^uint64(0), 2, 0.99)
	f.Add(uint64(0x5DEECE66D)<<20, 102, 0.7)
	f.Add(uint64(0x9E3779B97F4A7C15), 1<<40, -1.0)
	f.Fuzz(func(t *testing.T, out uint64, n int, theta float64) {
		checkZipf(t, out>>11, n, theta)
	})
}

var zipfSink int

// BenchmarkZipf draws ranks as pagerank does at the paper-grid scale.
func BenchmarkZipf(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		zipfSink += r.Zipf(5120, 0.65)
	}
}
