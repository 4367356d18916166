package workload

import (
	"fmt"

	"itsim/internal/prng"
)

// Benchmark names (paper §4.1).
const (
	Caffe      = "caffe"
	Wrf        = "wrf"
	Blender    = "blender"
	Xz         = "xz"
	DeepSjeng  = "deepsjeng"
	CommDetect = "commdetect"
	RandomWalk = "randomwalk"
	Graph500   = "graph500sssp"
	PageRank   = "pagerank"
)

// MiB is 2^20 bytes.
const MiB = 1 << 20

// profiles is baseProfiles' table, built once and never mutated:
// ProfileFor copies entries out of it.
var profiles = baseProfiles()

// baseProfiles returns the nine benchmark profiles at scale 1.0. Footprints
// and record counts shrink/grow with scale so tests can run the same shapes
// cheaply. Each profile's comment states the access-pattern class it
// models; the parameters are the knobs DESIGN.md §2 calls out.
func baseProfiles() map[string]Profile {
	return map[string]Profile{
		// CaffeNet inference: layer weights stream sequentially, a small
		// activation buffer is intensely reused.
		Caffe: {
			Name: Caffe, Class: GeneralPurpose,
			FootprintBytes: 30 * MiB, Records: 400_000,
			Streams: 2, StrideBytes: 64,
			PSeq: 0.70, PHot: 0.20, HotBytes: 4 * MiB,
			StoreFrac: 0.25, GapMean: 21, DepChain: 0.45,
			Seed: 0xCAFE_0001,
		},
		// WRF weather stencil: several arrays swept in lockstep with
		// regular strides; tiny boundary-condition hot set.
		Wrf: {
			Name: Wrf, Class: GeneralPurpose,
			FootprintBytes: 32 * MiB, Records: 420_000,
			Streams: 4, StrideBytes: 64,
			PSeq: 0.78, PHot: 0.12, HotBytes: 2 * MiB,
			StoreFrac: 0.30, GapMean: 24, DepChain: 0.50,
			Seed: 0x00F1_0002,
		},
		// Blender rendering: sequential within a tile, random jumps
		// between tiles, scene-graph lookups in a reused cache.
		Blender: {
			Name: Blender, Class: GeneralPurpose,
			FootprintBytes: 28 * MiB, Records: 400_000,
			Streams: 2, StrideBytes: 64, TileBytes: 256 * 1024,
			PSeq: 0.62, PHot: 0.18, HotBytes: 4 * MiB,
			StoreFrac: 0.22, GapMean: 22, DepChain: 0.40,
			Seed: 0xB1E7_0003,
		},
		// Xz compression: sequential input scan with match lookups
		// confined to the trailing dictionary window.
		Xz: {
			Name: Xz, Class: GeneralPurpose,
			FootprintBytes: 26 * MiB, Records: 380_000,
			Streams: 1, StrideBytes: 64, WindowBytes: 6 * MiB,
			PSeq: 0.55, PHot: 0.15, HotBytes: 1 * MiB,
			StoreFrac: 0.35, GapMean: 18, DepChain: 0.50,
			Seed: 0x0C2A_0004,
		},
		// DeepSjeng chess search: transposition-table probes look random
		// but the table is modest and the search stack is very hot.
		DeepSjeng: {
			Name: DeepSjeng, Class: GeneralPurpose,
			FootprintBytes: 28 * MiB, Records: 360_000,
			Streams: 1, StrideBytes: 64,
			PSeq: 0.35, PHot: 0.30, HotBytes: 2 * MiB,
			StoreFrac: 0.25, GapMean: 20, DepChain: 0.55,
			Seed: 0xDEE2_0005,
		},
		// GraphChi community detection: semi-external shard scans
		// (sequential) plus skewed vertex-value lookups.
		CommDetect: {
			Name: CommDetect, Class: GeneralPurpose,
			FootprintBytes: 36 * MiB, Records: 440_000,
			Streams: 2, StrideBytes: 64,
			PSeq: 0.60, PHot: 0.10, HotBytes: 3 * MiB,
			ZipfTheta: 0.70,
			StoreFrac: 0.30, GapMean: 15, DepChain: 0.45,
			Seed: 0xC0DE_0006,
		},
		// GraphChi random walk: dominant uniform-ish jumps over a large
		// edge list — the canonical memory-hostile workload.
		RandomWalk: {
			Name: RandomWalk, Class: DataIntensive,
			FootprintBytes: 96 * MiB, Records: 450_000,
			Streams: 1, StrideBytes: 64,
			PSeq: 0.08, PHot: 0.07, HotBytes: 2 * MiB,
			ZipfTheta: 0.55,
			StoreFrac: 0.10, GapMean: 9, DepChain: 0.35,
			Seed: 0x3A1D_0007,
		},
		// Graph500 single-source shortest path: frontier expansion with
		// skewed random neighbour visits.
		Graph500: {
			Name: Graph500, Class: DataIntensive,
			FootprintBytes: 88 * MiB, Records: 450_000,
			Streams: 1, StrideBytes: 64,
			PSeq: 0.15, PHot: 0.10, HotBytes: 4 * MiB,
			ZipfTheta: 0.60,
			StoreFrac: 0.20, GapMean: 10, DepChain: 0.40,
			Seed: 0x6500_0008,
		},
		// GraphChi page rank: sequential edge streaming, random
		// destination-rank updates over a large vector.
		PageRank: {
			Name: PageRank, Class: DataIntensive,
			FootprintBytes: 80 * MiB, Records: 460_000,
			Streams: 2, StrideBytes: 64,
			PSeq: 0.40, PHot: 0.05, HotBytes: 2 * MiB,
			ZipfTheta: 0.65,
			StoreFrac: 0.25, GapMean: 9, DepChain: 0.40,
			Seed: 0x9A6E_0009,
		},
	}
}

// Names lists the nine benchmarks in the paper's order.
func Names() []string {
	return []string{Caffe, Wrf, Blender, Xz, DeepSjeng, CommDetect, RandomWalk, Graph500, PageRank}
}

// ProfileFor returns the benchmark's profile scaled by scale (footprint and
// record count; locality parameters are scale-invariant). Scale must be
// positive; scale 1.0 is the benchmark's full size.
func ProfileFor(name string, scale float64) (Profile, error) {
	if scale <= 0 {
		return Profile{}, fmt.Errorf("workload: non-positive scale %v", scale)
	}
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	p.FootprintBytes = uint64(float64(p.FootprintBytes) * scale)
	if p.FootprintBytes < 16*4096 {
		p.FootprintBytes = 16 * 4096
	}
	p.Records = int(float64(p.Records) * scale)
	if p.Records < 1000 {
		p.Records = 1000
	}
	p.HotBytes = uint64(float64(p.HotBytes) * scale)
	if p.HotBytes < 4096 {
		p.HotBytes = 4096
	}
	if p.WindowBytes > 0 {
		p.WindowBytes = uint64(float64(p.WindowBytes) * scale)
		if p.WindowBytes < 4096 {
			p.WindowBytes = 4096
		}
	}
	return p, nil
}

// MustGenerator builds the named benchmark's generator at scale, panicking
// on unknown names (experiment configs are compiled in).
func MustGenerator(name string, scale float64) *Synthetic {
	p, err := ProfileFor(name, scale)
	if err != nil {
		panic(err)
	}
	return New(p)
}

// Batch is one of the paper's four six-process mixes (§4.1).
type Batch struct {
	// Name is e.g. "2_Data_Intensive".
	Name string
	// Members are benchmark names, six per batch.
	Members []string
	// Priorities holds one priority per member (larger = higher),
	// assigned "randomly" as in the paper but deterministically from the
	// batch seed so every policy sees the same assignment.
	Priorities []int
	// DataIntensive is the number of data-intensive members.
	DataIntensive int
}

// Batches returns the paper's four process batches. All four share Wrf,
// Blender and community detection; the remaining three members vary the
// data-intensive count 0→3.
//
// Priorities are "assigned randomly" in the paper (§4.1) without the draw
// being disclosed; we pin one deterministic draw per batch so every policy
// sees identical assignments. The pinned draws spread heavy- and
// light-faulting processes over both priority halves (a property any
// representative draw has in expectation), which the Figure 5 top/bottom
// split depends on.
func Batches() []Batch {
	mixes := []struct {
		name  string
		extra []string
		prios []int // priority per member (wrf, blender, commdetect, extras…)
		di    int
	}{
		{"No_Data_Intensive", []string{Caffe, DeepSjeng, Xz}, []int{6, 3, 2, 5, 4, 1}, 0},
		{"1_Data_Intensive", []string{Caffe, DeepSjeng, RandomWalk}, []int{5, 6, 1, 4, 3, 2}, 1},
		{"2_Data_Intensive", []string{DeepSjeng, RandomWalk, Graph500}, []int{5, 3, 1, 4, 2, 6}, 2},
		{"3_Data_Intensive", []string{RandomWalk, Graph500, PageRank}, []int{5, 1, 4, 6, 2, 3}, 3},
	}
	out := make([]Batch, 0, len(mixes))
	for _, m := range mixes {
		members := append([]string{Wrf, Blender, CommDetect}, m.extra...)
		out = append(out, Batch{
			Name:          m.name,
			Members:       members,
			Priorities:    m.prios,
			DataIntensive: m.di,
		})
	}
	return out
}

// BatchByName returns the named batch.
func BatchByName(name string) (Batch, error) {
	for _, b := range Batches() {
		if b.Name == name {
			return b, nil
		}
	}
	return Batch{}, fmt.Errorf("workload: unknown batch %q", name)
}

// AssignPriorities returns a deterministic random permutation of 1..n —
// a reproducible "random" priority draw for custom batches.
func AssignPriorities(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i + 1
	}
	rng := prng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Generators instantiates the batch's six generators at scale, in member
// order.
func (b Batch) Generators(scale float64) []*Synthetic {
	out := make([]*Synthetic, 0, len(b.Members))
	for _, name := range b.Members {
		out = append(out, MustGenerator(name, scale))
	}
	return out
}

// TotalFootprint sums the batch members' footprints at scale.
func (b Batch) TotalFootprint(scale float64) uint64 {
	var t uint64
	for _, name := range b.Members {
		p, err := ProfileFor(name, scale)
		if err != nil {
			panic(err)
		}
		t += p.FootprintBytes
	}
	return t
}
