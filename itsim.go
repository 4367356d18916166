// Package itsim is a trace-driven simulator reproducing "How to Steal CPU
// Idle Time When Synchronous I/O Mode Becomes Promising" (Wu, Chang, Yang,
// Kuo — DAC 2024).
//
// The paper proposes the Idle-Time-Stealing (ITS) design: when ultra-low-
// latency storage makes synchronous I/O (busy-waiting) cheaper than a
// context switch, the busy-wait window is stolen for useful work — a
// self-improving kernel thread prefetches pages by walking the page table
// and pre-executes upcoming instructions for high-priority processes, while
// a self-sacrificing kernel thread switches low-priority processes' I/O to
// asynchronous mode so high-priority work keeps the CPU.
//
// This package is the public facade over the full simulated platform
// (single core with L1/LLC, 4-level page tables, mini kernel with swap,
// SCHED_RR scheduler, ULL SSD behind a PCIe 5.x ×4 link) and the paper's
// experiment grid. Quick start:
//
//	batch, _ := itsim.BatchByName("2_Data_Intensive")
//	run, err := itsim.RunBatch(batch, itsim.ITS, itsim.Options{Scale: 0.25})
//	if err != nil { ... }
//	fmt.Println(run.TotalIdle(), run.TotalMajorFaults())
//
// See cmd/itsbench for regenerating every figure of the paper and DESIGN.md
// for the system inventory.
package itsim

import (
	"io"

	"itsim/internal/core"
	"itsim/internal/exec"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/trace"
	"itsim/internal/workload"
	"itsim/internal/workload/algo"
)

// Policy identifies one of the five I/O-mode policies of the evaluation.
type Policy = policy.Kind

// The five policies, in the paper's presentation order.
const (
	// Async is the traditional asynchronous I/O baseline.
	Async = policy.Async
	// Sync is the Intel/IBM-advocated synchronous (busy-wait) mode.
	Sync = policy.Sync
	// SyncRunahead adds classic runahead pre-execution to Sync.
	SyncRunahead = policy.SyncRunahead
	// SyncPrefetch adds page-on-page group prefetching to Sync.
	SyncPrefetch = policy.SyncPrefetch
	// ITS is the paper's Idle-Time-Stealing design.
	ITS = policy.ITS
)

// Policies returns all five policy kinds in presentation order.
func Policies() []Policy { return policy.Kinds() }

// PolicyByName parses a policy name ("Async", "Sync", "Sync_Runahead",
// "Sync_Prefetch", "ITS").
func PolicyByName(name string) (Policy, error) { return policy.KindByName(name) }

// ITSConfig tunes the ITS policy (prefetch degree, ablation switches).
type ITSConfig = policy.ITSConfig

// Options configure an experiment run (workload scale, machine overrides,
// ITS tuning).
type Options = core.Options

// MachineConfig sizes the simulated platform; DefaultMachineConfig returns
// the paper's §4.1 configuration.
type MachineConfig = machine.Config

// DefaultMachineConfig returns the paper's §4.1 platform parameters.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// Run is the metrics record of one simulated batch execution.
type Run = metrics.Run

// ProcessMetrics is the per-process slice of a Run.
type ProcessMetrics = metrics.Process

// Time is a virtual timestamp/duration in nanoseconds.
type Time = sim.Time

// Batch is one of the paper's four six-process mixes.
type Batch = workload.Batch

// Batches returns the paper's four process batches
// (No/1/2/3_Data_Intensive).
func Batches() []Batch { return workload.Batches() }

// BatchByName returns the named batch.
func BatchByName(name string) (Batch, error) { return workload.BatchByName(name) }

// Workloads returns the nine benchmark names in the paper's order.
func Workloads() []string { return workload.Names() }

// Generator is a deterministic memory-access trace source.
type Generator = trace.Generator

// NewGenerator builds the named benchmark's synthetic trace generator at
// the given scale (1.0 = full size).
func NewGenerator(name string, scale float64) (Generator, error) {
	p, err := workload.ProfileFor(name, scale)
	if err != nil {
		return nil, err
	}
	return workload.New(p), nil
}

// RunBatch executes one batch under one policy and returns its metrics.
func RunBatch(b Batch, kind Policy, opts Options) (*Run, error) {
	return core.RunBatch(b, kind, opts)
}

// GridResult holds one batch's runs across all five policies.
type GridResult = core.GridResult

// RunGrid executes every batch × policy — the full Figure 4/5 grid.
func RunGrid(opts Options) ([]GridResult, error) { return core.RunGrid(opts) }

// ObservationPoint is one bar of the §2.2 motivation experiment.
type ObservationPoint = core.ObservationPoint

// CrossoverPoint is one row of the huge-I/O sync-vs-async crossover sweep.
type CrossoverPoint = core.CrossoverPoint

// SensitivityResult summarizes a policy's normalized idle across random
// priority draws.
type SensitivityResult = core.SensitivityResult

// SpinPoint is one row of the hybrid-polling comparison sweep.
type SpinPoint = core.SpinPoint

// RunSpinSweep compares ITS against kernel-style hybrid polling
// (spin-then-block) across busy-wait thresholds.
func RunSpinSweep(opts Options, thresholds []Time) ([]SpinPoint, error) {
	return core.RunSpinSweep(opts, thresholds)
}

// CustomPolicy is a policy implementation; use RunBatchCustom to evaluate
// one that is not among the five paper kinds (e.g. NewSpinBlockPolicy).
type CustomPolicy = policy.Policy

// NewSpinBlockPolicy builds the hybrid-polling baseline: busy-wait up to
// threshold (≤0 = the 7 µs default), then block.
func NewSpinBlockPolicy(threshold Time) CustomPolicy {
	return policy.NewSpinBlock(threshold)
}

// RunBatchCustom executes one batch under a custom policy instance.
func RunBatchCustom(b Batch, pol CustomPolicy, opts Options) (*Run, error) {
	return core.RunBatchWithPolicy(b, pol, opts)
}

// RunSensitivity re-runs a batch across several random priority draws,
// showing the figure orderings are draw-independent.
func RunSensitivity(batchName string, draws int, opts Options) ([]SensitivityResult, error) {
	return core.RunSensitivity(batchName, draws, opts)
}

// RunCrossover sweeps the swap-in cluster size and reports where
// asynchronous I/O beats synchronous busy-waiting again (the paper's §1
// "larger I/O sizes" motivation).
func RunCrossover(opts Options, clusterSizes []int) ([]CrossoverPoint, error) {
	return core.RunCrossover(opts, clusterSizes)
}

// RunObservation reproduces the §2.2 experiment: CPU idle time versus
// process count under plain synchronous I/O.
func RunObservation(opts Options) ([]ObservationPoint, error) {
	return core.RunObservation(opts)
}

// Figure metrics for GridResult.Normalized.
var (
	// MetricIdle is Figure 4a's total CPU idle time.
	MetricIdle = core.MetricIdle
	// MetricPageFaults is Figure 4b's major-fault count.
	MetricPageFaults = core.MetricPageFaults
	// MetricCacheMisses is Figure 4c's LLC-miss count.
	MetricCacheMisses = core.MetricCacheMisses
	// MetricTopFinish is Figure 5a's top-50 % average finish time.
	MetricTopFinish = core.MetricTopFinish
	// MetricBottomFinish is Figure 5b's bottom-50 % average finish time.
	MetricBottomFinish = core.MetricBottomFinish
)

// SliceRange returns the SCHED_RR slice bounds scaled to a workload scale
// (see exec.SliceRange for the rationale).
func SliceRange(scale float64) (min, max Time) { return exec.SliceRange(scale) }

// ProcessSpec declares one process of a custom run: a name, a trace source,
// a scheduling priority and the base virtual address of its image.
type ProcessSpec = machine.ProcessSpec

// WorkloadBaseVA is where the synthetic workloads' images start; custom
// SliceGenerator traces may use any base that covers their addresses.
const WorkloadBaseVA = workload.BaseVA

// RunProcesses executes an ad-hoc process mix (e.g. traces loaded from
// files) under the given policy. dataIntensive hints how memory-hostile the
// mix is (0–3), selecting the same per-batch DRAM sizing the paper uses.
func RunProcesses(name string, specs []ProcessSpec, kind Policy, dataIntensive int, opts Options) (*Run, error) {
	var pol policy.Policy
	if kind == ITS {
		pol = policy.NewITS(opts.ITS)
	} else {
		pol = policy.New(kind)
	}
	return core.RunSpecs(name, specs, pol, dataIntensive, opts)
}

// WriteTrace serializes a trace in the binary ITRC format.
func WriteTrace(w io.Writer, g Generator) error { return trace.WriteAll(w, g) }

// ReadTrace loads an ITRC trace into memory; the result implements
// Generator and can be placed in a ProcessSpec.
func ReadTrace(r io.Reader) (Generator, error) { return trace.ReadAll(r) }

// TraceFile is a streaming ITRC trace backed by an open file. It implements
// Generator; Close it after the run.
type TraceFile = trace.FileGenerator

// OpenTrace opens an ITRC trace file for streaming: records decode
// incrementally during the run instead of being materialized up front, so
// arbitrarily large traces simulate in constant memory. The result can be
// placed in a ProcessSpec; Close it when the run is done, and check its Err
// method afterwards (a truncated file ends the trace early rather than
// failing the run).
func OpenTrace(path string) (*TraceFile, error) { return trace.OpenFile(path) }

// StreamTrace wraps a seekable ITRC stream (e.g. an already-open file or a
// bytes.Reader) as a streaming Generator without loading it into memory.
func StreamTrace(r io.ReadSeeker) (Generator, error) { return trace.NewStreamGenerator(r) }

// ParseLackey converts Valgrind Lackey --trace-mem output — the paper's
// actual trace front end — into a Generator.
func ParseLackey(r io.Reader, name string) (Generator, error) {
	return trace.ParseLackey(r, name)
}

// AnalyzeTrace summarizes a trace (record counts, instruction count, page
// footprint).
type TraceStats = trace.Stats

// AnalyzeTrace runs the generator to completion and returns its statistics.
func AnalyzeTrace(g Generator) TraceStats { return trace.Analyze(g) }

// Graph is a synthetic scale-free graph in CSR layout, the substrate of the
// algorithm-driven trace generators (higher-fidelity stand-ins for the
// paper's GraphChi/Graph500 workloads).
type Graph = algo.Graph

// NewGraph builds a deterministic scale-free graph with n vertices and
// roughly avgDeg out-edges per vertex.
func NewGraph(n, avgDeg int, seed uint64) *Graph { return algo.Generate(n, avgDeg, seed) }

// NewRandomWalkTrace traces w walkers taking random steps over g (GraphChi
// random-walk stand-in), producing exactly records accesses.
func NewRandomWalkTrace(g *Graph, walkers, records int, seed uint64) Generator {
	return algo.NewRandomWalk(g, walkers, records, seed)
}

// NewPageRankTrace traces CSR-streaming page-rank sweeps over g (GraphChi
// page-rank stand-in).
func NewPageRankTrace(g *Graph, records int, seed uint64) Generator {
	return algo.NewPageRank(g, records, seed)
}

// NewSSSPTrace traces BFS frontier expansion over g (Graph500 single-source
// shortest-path stand-in).
func NewSSSPTrace(g *Graph, records int, seed uint64) Generator {
	return algo.NewSSSP(g, records, seed)
}

// NewCommDetectTrace traces synchronous label propagation over g (GraphChi
// community-detection stand-in).
func NewCommDetectTrace(g *Graph, records int, seed uint64) Generator {
	return algo.NewCommDetect(g, records, seed)
}

// GraphHeapBase is the virtual address where a Graph's arrays begin; pass
// it as a ProcessSpec's BaseVA when simulating algorithmic traces.
const GraphHeapBase = algo.Base
