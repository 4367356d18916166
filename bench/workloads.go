package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"itsim/internal/chaos"
	"itsim/internal/cluster"
	"itsim/internal/core"
	"itsim/internal/fault"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/prng"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/trace"
	"itsim/internal/workload"
)

// workloadDef names one benchmark workload and builds its inputs. size
// multiplies the workload's amount of simulated work (1 = the benchmark;
// the smoke test runs a sliver of it); dir is a scratch directory the
// workload may write input files into.
type workloadDef struct {
	name  string
	setup func(seed uint64, size float64, dir string, rec *recorder) (*job, error)
}

// workloads is the benchmark's workload set. Why each one exists is in
// README.md; the names are part of BENCHMARK.json.
var workloads = []workloadDef{
	{"paper-grid", setupPaperGrid},
	{"smp4-itrc", setupSMP4ITRC},
	{"fleet-steady", setupFleet(fleetSteady)},
	{"fleet-chaos", setupFleet(fleetChaos)},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// job is a workload's inputs, built once: rep runs one repetition of the
// workload's fixed simulated work on them, close releases them.
type job struct {
	rep   func(rec *recorder, key string) (*repOut, error)
	close func() error
}

// cell is one machine run: a batch under one policy.
type cell struct {
	batch string
	kind  policy.Kind
	cfg   machine.Config
	specs []machine.ProcessSpec
	run   *metrics.Run
}

// repOut is what one repetition produced. Machine workloads fill cells,
// fleet workloads fill fleet.
type repOut struct {
	// wall is host time spent inside the simulator's entry points.
	wall  time.Duration
	cells []cell
	fleet *cluster.Result
}

// seeded returns the benchmark's profile of name at scale: seed 0 keeps
// the pinned paper seed, any other seed is mixed into it. Seeds vary trace
// contents only; the batches keep the paper's priorities, so that every
// seed is an equivalent input and runs on different seeds compare.
func seeded(name string, scale float64, seed uint64) (workload.Profile, error) {
	p, err := workload.ProfileFor(name, scale)
	if err != nil {
		return p, err
	}
	if seed != 0 {
		p.Seed = prng.Mix(p.Seed, seed)
	}
	return p, nil
}

// machineConfig is the per-batch platform core.Options derives: the
// paper's §4.1 machine with slices and DRAM sized for the batch.
func machineConfig(b workload.Batch, scale float64, cores int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.MinSlice, cfg.MaxSlice = core.SliceRange(scale)
	cfg.DRAMRatio = core.DRAMRatioFor(b.DataIntensive)
	cfg.Cores = cores
	return cfg
}

func newPolicy(kind policy.Kind) func() policy.Policy {
	return func() policy.Policy {
		if kind == policy.ITS {
			return policy.NewITS(policy.ITSConfig{})
		}
		return policy.New(kind)
	}
}

// machineJob runs every cell once per repetition through smp.New and Run.
func machineJob(cells []cell, close func() error) *job {
	return &job{
		rep: func(rec *recorder, key string) (*repOut, error) {
			out := &repOut{cells: make([]cell, len(cells))}
			for i, c := range cells {
				runKey := key + "/" + c.batch + "/" + c.kind.String()
				rec.setPolicy(c.kind.String())
				t0 := time.Now()
				s := rec.begin("smp.new", runKey)
				m, err := smp.New(c.cfg, newPolicy(c.kind), c.batch, c.specs)
				rec.end(s)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", runKey, err)
				}
				s = rec.begin("smp.run", runKey)
				c.run, err = m.Run()
				rec.end(s)
				out.wall += time.Since(t0)
				rec.setPolicy("")
				if err != nil {
					return nil, fmt.Errorf("%s: %w", runKey, err)
				}
				out.cells[i] = c
			}
			return out, nil
		},
		close: close,
	}
}

// paperGridScale is the paper-grid workload scale: EXPERIMENTS.md's
// Figure 4a table is measured at it.
const paperGridScale = 0.25

// setupPaperGrid builds the paper's 4 batches × 5 policies on one
// simulated core from synthetic generators. DRAM warm-starts through the
// generators' WarmPages; the LLC starts empty.
func setupPaperGrid(seed uint64, size float64, _ string, _ *recorder) (*job, error) {
	scale := paperGridScale * size
	var cells []cell
	for _, b := range workload.Batches() {
		specs := make([]machine.ProcessSpec, len(b.Members))
		for i, name := range b.Members {
			p, err := seeded(name, scale, seed)
			if err != nil {
				return nil, err
			}
			specs[i] = machine.ProcessSpec{Name: name, Gen: workload.New(p), Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		cfg := machineConfig(b, scale, 1)
		for _, k := range policy.Kinds() {
			cells = append(cells, cell{batch: b.Name, kind: k, cfg: cfg, specs: specs})
		}
	}
	return machineJob(cells, func() error { return nil }), nil
}

// smp4Scale is the smp4-itrc workload scale.
const smp4Scale = 0.4

// smp4Kinds are the policies smp4-itrc runs each batch under: Sync, and
// both pre-executing policies. ITS's INV-bit map grows in steps that
// depend on the traces, so its allocation alone moves with the seed by a
// few percent; Sync_Runahead's pre-execute cache is steady.
var smp4Kinds = []policy.Kind{policy.Sync, policy.SyncRunahead, policy.ITS}

// setupSMP4ITRC writes the 2_ and 3_Data_Intensive members as ITRC files
// and opens one streaming generator per process: the runs decode the
// traces from disk on 4 simulated cores, with DRAM cold because ITRC
// carries no warm-page hint.
func setupSMP4ITRC(seed uint64, size float64, dir string, rec *recorder) (*job, error) {
	scale := smp4Scale * size
	tmp, err := os.MkdirTemp(dir, "itrc-")
	if err != nil {
		return nil, err
	}
	var open []*trace.FileGenerator
	release := func() error {
		var first error
		for _, g := range open {
			if err := g.Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := os.RemoveAll(tmp); err != nil && first == nil {
			first = err
		}
		return first
	}
	cells, err := func() ([]cell, error) {
		var cells []cell
		written := make(map[string]string)
		for _, name := range []string{"2_Data_Intensive", "3_Data_Intensive"} {
			b, err := workload.BatchByName(name)
			if err != nil {
				return nil, err
			}
			specs := make([]machine.ProcessSpec, len(b.Members))
			for i, member := range b.Members {
				path, ok := written[member]
				if !ok {
					p, err := seeded(member, scale, seed)
					if err != nil {
						return nil, err
					}
					path = filepath.Join(tmp, member+".itrc")
					s := rec.begin("trace.write", "setup/"+member)
					err = writeTrace(path, workload.New(p))
					rec.end(s)
					if err != nil {
						return nil, err
					}
					written[member] = path
				}
				g, err := trace.OpenFile(path)
				if err != nil {
					return nil, err
				}
				open = append(open, g)
				specs[i] = machine.ProcessSpec{Name: member, Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
			}
			cfg := machineConfig(b, scale, 4)
			for _, k := range smp4Kinds {
				cells = append(cells, cell{batch: b.Name, kind: k, cfg: cfg, specs: specs})
			}
		}
		return cells, nil
	}()
	if err != nil {
		release()
		return nil, err
	}
	j := machineJob(cells, release)
	rep := j.rep
	j.rep = func(rec *recorder, key string) (*repOut, error) {
		out, err := rep(rec, key)
		if err != nil {
			return nil, err
		}
		// A decode error ends a stream early instead of failing the run.
		for _, g := range open {
			if err := g.Err(); err != nil {
				return nil, fmt.Errorf("%s: %w", g.Name(), err)
			}
		}
		return out, nil
	}
	return j, nil
}

func writeTrace(path string, gen trace.Generator) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteAll(f, gen); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// fleetDef is one fleet workload's configuration before seeding.
type fleetDef struct {
	routing string
	// tenants is a tenant spec whose %d verbs are the request counts.
	tenants  string
	requests []int
	chaos    string
	faults   string
	spin     sim.Time
}

// fleetScale multiplies every tenant's default per-request scale (0.02),
// as `itsbench -exp fleet` does at its default -scale.
const fleetScale = 0.25

// fleetSteady serves the `itsbench -exp fleet` tenant mix at open-loop
// rates the 4 machines absorb (≈87 % busy), so epochs stay small.
var fleetSteady = fleetDef{
	routing: cluster.LeastLoaded,
	tenants: "name=web,bench=pagerank,rate=7e3,req=%d,prio=3,slo=20ms;" +
		"name=train,bench=caffe,rate=4.5e3,req=%d,prio=2,pattern=diurnal,slo=60ms;" +
		"name=batch,bench=randomwalk,rate=2.5e3,req=%d,prio=1,pattern=bursty",
	requests: []int{900, 580, 320},
}

// fleetChaos is the same mix at lower rates under machine chaos, device
// faults and the request-lifecycle machinery (deadlines, retries,
// hedging, health routing).
var fleetChaos = fleetDef{
	routing: cluster.HealthAware,
	tenants: "name=web,bench=pagerank,rate=5e3,req=%d,prio=3,slo=20ms,deadline=6ms,retries=2,hedge=true;" +
		"name=train,bench=caffe,rate=3e3,req=%d,prio=2,pattern=diurnal,slo=60ms,deadline=20ms,retries=1;" +
		"name=batch,bench=randomwalk,rate=2e3,req=%d,prio=1,pattern=bursty",
	requests: []int{1200, 720, 480},
	chaos:    "seed=5,crashr=20,crashd=250us,warm=6ms,warmx=8,brownr=20,brownx=4,flapr=5",
	faults:   "seed=42,tailp=0.01,tailx=8,stallp=0.001,dmap=0.005",
	spin:     5 * sim.Microsecond,
}

// setupFleet builds a fleet workload. The seed perturbs every request's
// trace and arrival stream through cluster.Config.Seed; the chaos and
// device-fault schedules stay fixed, as the batches' priorities do.
func setupFleet(d fleetDef) func(uint64, float64, string, *recorder) (*job, error) {
	return func(seed uint64, size float64, _ string, _ *recorder) (*job, error) {
		counts := make([]any, len(d.requests))
		for i, n := range d.requests {
			counts[i] = max(1, int(float64(n)*size))
		}
		tenants, err := cluster.ParseTenantSpec(fmt.Sprintf(d.tenants, counts...))
		if err != nil {
			return nil, err
		}
		ch, err := chaos.ParseSpec(d.chaos)
		if err != nil {
			return nil, err
		}
		fl, err := fault.ParseSpec(d.faults)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Machines:   4,
			Policy:     policy.ITS,
			Routing:    d.routing,
			Tenants:    tenants,
			Scale:      fleetScale,
			Seed:       seed,
			Chaos:      ch,
			Fault:      fl,
			SpinBudget: d.spin,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &job{
			rep: func(rec *recorder, key string) (*repOut, error) {
				rec.setPolicy(cfg.Policy.String())
				t0 := time.Now()
				s := rec.begin("cluster.run", key)
				res, err := cluster.Run(cfg)
				rec.end(s)
				wall := time.Since(t0)
				rec.setPolicy("")
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				return &repOut{wall: wall, fleet: res}, nil
			},
			close: func() error { return nil },
		}, nil
	}
}
