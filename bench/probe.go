package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"itsim/internal/cache"
	"itsim/internal/cluster"
	"itsim/internal/core"
	"itsim/internal/machine"
	"itsim/internal/pagetable"
	"itsim/internal/policy"
	"itsim/internal/prefetch"
	"itsim/internal/prng"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/trace"
	"itsim/internal/workload"
)

// probeResult is one layer probe: host time and heap allocations per call
// of one public function on fixed inputs drawn from the seed.
type probeResult struct {
	ns, allocs, bytes float64
}

// timeOps calls op n times after a warm-up of n/10 calls, counting
// allocations the way testing.AllocsPerRun does.
func timeOps(n int, op func(i int)) probeResult {
	for i := 0; i < n/10+1; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probeResult{
		ns:     float64(d.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// probeStream is the probes' input: a pagerank trace (the most
// memory-hostile paper workload) and its page-aligned address stream.
type probeStream struct {
	prof  workload.Profile
	addrs []uint64 // len is a power of two
}

const probeStreamLen = 1 << 16

func newProbeStream(seed uint64) (*probeStream, error) {
	p, err := seeded(workload.PageRank, 0.05, seed)
	if err != nil {
		return nil, err
	}
	g := workload.New(p)
	addrs := make([]uint64, 0, probeStreamLen)
	var rec trace.Record
	for len(addrs) < probeStreamLen {
		if !g.Next(&rec) {
			g.Reset()
			continue
		}
		addrs = append(addrs, rec.Addr)
	}
	return &probeStream{prof: p, addrs: addrs}, nil
}

func (s *probeStream) addr(i int) uint64 { return s.addrs[i&(probeStreamLen-1)] }

// swappedSpace maps the stream's footprint as swapped out, with every
// other page made resident, so prefetch walks find both kinds of PTE.
func (s *probeStream) swappedSpace() *pagetable.AddressSpace {
	as := pagetable.New()
	pages := trace.FootprintPages(s.prof.FootprintBytes)
	for i := uint64(0); i < pages; i++ {
		va := workload.BaseVA + i*trace.PageSize
		as.MapSwapped(va, i)
		if i%2 == 0 {
			as.MakePresent(va, i)
		}
	}
	return as
}

type nopHandler struct{}

func (nopHandler) Fire(sim.Time) {}

// runProbes drives each layer's public hot-path function on the seed's
// inputs. ops scales the call counts (1 = benchmark size).
func runProbes(seed uint64, ops float64) (map[string]probeResult, error) {
	n := func(base int) int { return max(16, int(float64(base)*ops)) }
	s, err := newProbeStream(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]probeResult)

	gen := workload.New(s.prof)
	var rec trace.Record
	out["workload.next"] = timeOps(n(4_000_000), func(int) {
		if !gen.Next(&rec) {
			gen.Reset()
		}
	})

	var itrc bytes.Buffer
	if err := trace.WriteAll(&itrc, workload.New(s.prof)); err != nil {
		return nil, err
	}
	stream, err := trace.NewStreamGenerator(bytes.NewReader(itrc.Bytes()))
	if err != nil {
		return nil, err
	}
	out["trace.decode"] = timeOps(n(4_000_000), func(int) {
		if !stream.Next(&rec) {
			stream.Reset()
		}
	})
	if err := stream.Err(); err != nil {
		return nil, fmt.Errorf("trace probe: %w", err)
	}

	// 64 pending events with seeded delays: each call fires the earliest
	// and schedules a replacement.
	var eng sim.Engine
	rng := prng.New(prng.Mix(seed, 0x5EED))
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(1000))
	}
	for i := 0; i < 64; i++ {
		eng.ScheduleHandler(delays[i], nopHandler{})
	}
	out["sim.event"] = timeOps(n(4_000_000), func(i int) {
		eng.StepOne()
		eng.ScheduleHandler(eng.Now()+delays[i&1023], nopHandler{})
	})

	llc := cache.New(cache.Config{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16})
	out["cache.accessfill"] = timeOps(n(8_000_000), func(i int) { llc.AccessFill(s.addr(i)) })

	as := s.swappedSpace()
	out["pagetable.walk"] = timeOps(n(8_000_000), func(i int) { as.Walk(s.addr(i)) })

	w := prefetch.NewVAWalker()
	out["prefetch.candidates"] = timeOps(n(1_000_000), func(i int) { w.Candidates(as, s.addr(i)) })

	cfg, specs, err := fleetEpoch(seed)
	if err != nil {
		return nil, err
	}
	var newErr error
	out["smp.new"] = timeOps(n(200), func(int) {
		if _, err := smp.New(cfg, newPolicy(policy.ITS), "probe", specs); err != nil {
			newErr = err
		}
	})
	return out, newErr
}

// fleetEpoch is one 4-request fleet epoch of the fleet workloads' tenant
// mix, with the machine config the cluster derives for it.
func fleetEpoch(seed uint64) (machine.Config, []machine.ProcessSpec, error) {
	scale := fleetScale * cluster.DefaultTenantScale
	benches := []string{workload.PageRank, workload.Caffe, workload.RandomWalk, workload.PageRank}
	prios := []int{3, 2, 1, 3}
	specs := make([]machine.ProcessSpec, len(benches))
	di := 0
	for i, b := range benches {
		p, err := seeded(b, scale, prng.Mix(seed, uint64(i)+1))
		if err != nil {
			return machine.Config{}, nil, err
		}
		if p.Class == workload.DataIntensive {
			di++
		}
		specs[i] = machine.ProcessSpec{Name: b, Gen: workload.New(p), Priority: prios[i], BaseVA: workload.BaseVA}
	}
	cfg := machine.DefaultConfig()
	cfg.MinSlice, cfg.MaxSlice = core.SliceRange(scale)
	cfg.DRAMRatio = core.DRAMRatioFor(di)
	return cfg, specs, nil
}
