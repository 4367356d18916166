package main

import "time"

// The reference is a fixed computation timed next to every repetition of
// the untraced pass, so that host-time metrics can be read at one host
// speed. On a shared host the same repetition runs 10-25 % slower for
// minutes at a time; the reference slows with it, the simulator's own
// speed does not move it, and no change to the simulator touches it.
//
// It does the kind of work the simulator's per-record path does: an
// xorshift address stream with locality, a page lookup in a Go map, and a
// 16-way set-associative tag array with LRU replacement.
const (
	refOps       = 3_000_000
	refSets      = 8192
	refWays      = 16
	refPages     = 16384
	refFootprint = 64 << 20
	// refNominalNs is a typical reading of the reference on the development
	// host (2-vCPU Xeon VM at 2.1 GHz, where it read 60-90 ns as the host's
	// load changed); paired host times are scaled to it.
	refNominalNs = 70.0
)

// refSink keeps the reference's result live.
var refSink uint64

// reference times one run of the reference computation and returns its
// ns per op. Its state is built per call and dropped after, so that the
// memory it touches is not counted in a repetition's resident set.
func reference() float64 {
	tags := make([]uint64, refSets*refWays)
	ages := make([]uint32, refSets*refWays)
	pages := make(map[uint64]uint64, refPages)
	for i := uint64(0); i < refPages; i++ {
		pages[i] = i * 7
	}
	x := uint64(88172645463325252)
	var base, hits uint64
	var tick uint32
	t0 := time.Now()
	for i := 0; i < refOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := base + (x>>8)&0xffff
		if x&3 == 0 {
			addr = (x >> 16) & (refFootprint - 1)
			base = addr
		}
		hits += pages[(addr>>12)&(refPages-1)] & 1
		line := addr >> 6
		set := line & (refSets - 1)
		ways := tags[set*refWays : set*refWays+refWays]
		age := ages[set*refWays : set*refWays+refWays]
		tick++
		victim, oldest := -1, ^uint32(0)
		for w := range ways {
			if ways[w] == line {
				age[w] = tick
				hits++
				victim = -1
				break
			}
			if age[w] < oldest {
				oldest, victim = age[w], w
			}
		}
		if victim >= 0 {
			ways[victim], age[victim] = line, tick
		}
	}
	d := time.Since(t0)
	refSink += hits
	return float64(d.Nanoseconds()) / refOps
}
