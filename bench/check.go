package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"itsim/internal/metrics"
	"itsim/internal/policy"
)

// goldenJSON holds, per workload, the SHA-256 of every run summary of one
// repetition at seed 0 and benchmark size. A model change that is meant
// to move the numbers replaces the workload's entry with the digest the
// failing run reports.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// verdict is the outcome of checking one repetition.
type verdict struct {
	digest string
	// runs counts the simulated runs checked (machine runs, or one per
	// fleet); bad counts those breaking a conservation invariant.
	runs, bad int
}

// check digests one repetition's summaries and checks the invariants the
// simulator states: per core cpu+idle+switch == clock, and per fleet and
// tenant submitted == completed+shed+failed.
func check(out *repOut, rec *recorder, key string) (verdict, error) {
	h := sha256.New()
	var v verdict
	add := func(x any) error {
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		return nil
	}
	if out.fleet != nil {
		v.runs = 1
		if err := add(out.fleet.Summary); err != nil {
			return v, err
		}
		ok := fleetConserved(&out.fleet.Summary)
		for _, r := range out.fleet.Epochs {
			ok = ok && coresBalanced(r)
		}
		if !ok {
			v.bad = 1
		}
	}
	for _, c := range out.cells {
		v.runs++
		s := rec.begin("metrics.summary", key+"/"+c.batch+"/"+c.kind.String())
		sum := c.run.Summary()
		rec.end(s)
		if err := add(sum); err != nil {
			return v, err
		}
		if !coresBalanced(c.run) {
			v.bad++
		}
	}
	v.digest = hex.EncodeToString(h.Sum(nil))
	return v, nil
}

func coresBalanced(r *metrics.Run) bool {
	if len(r.Cores) == 0 {
		return false
	}
	for _, c := range r.Cores {
		if c.CPUTime+c.SchedulerIdle+c.ContextSwitchTime != c.LocalClock {
			return false
		}
	}
	return true
}

func fleetConserved(s *metrics.FleetSummary) bool {
	var shed, failed uint64
	for _, t := range s.Tenants {
		if t.Requests != t.Completed+t.Shed+t.Failed {
			return false
		}
		shed += t.Shed
		failed += t.Failed
	}
	return s.Requests == s.Completed+shed+failed
}

// runs returns every machine run of a repetition: the grid cells, or the
// fleet's epochs.
func (o *repOut) runs() []*metrics.Run {
	if o.fleet != nil {
		return o.fleet.Epochs
	}
	rs := make([]*metrics.Run, len(o.cells))
	for i, c := range o.cells {
		rs[i] = c.run
	}
	return rs
}

// requests counts the repetition's resolved requests: fleet requests, or
// on the machine workloads the simulated processes (each fleet request
// runs as one process).
func (o *repOut) requests() uint64 {
	if o.fleet != nil {
		return o.fleet.Summary.Requests
	}
	var n uint64
	for _, c := range o.cells {
		n += uint64(len(c.run.Procs))
	}
	return n
}

// simCounts are the simulated per-layer counts of one repetition. They
// are exact: a change that leaves the model alone leaves them alone.
type simCounts struct {
	instructions, llcAccesses, llcMisses       uint64
	majorFaults, minorFaults                   uint64
	pfIssued, pfUseful, pxInstrs, pxValid      uint64
	contextSwitches, demotions, steals         uint64
	dmaRetries, smpRuns, requests, epochs      uint64
	timeouts, retries, hedges, rehomed, failed uint64
	syncWaitP99                                int64
}

func countSim(o *repOut) simCounts {
	var c simCounts
	merged := make(map[int64]uint64)
	var syncMax int64
	for _, r := range o.runs() {
		c.smpRuns++
		for _, p := range r.Procs {
			c.instructions += p.Instructions
			c.llcAccesses += p.LLCAccesses
			c.llcMisses += p.LLCMisses
			c.majorFaults += p.MajorFaults
			c.minorFaults += p.MinorFaults
			c.pfIssued += p.PrefetchIssued
			c.pfUseful += p.PrefetchUseful
			c.pxInstrs += p.PreexecInstrs
			c.pxValid += p.PreexecValid
			c.contextSwitches += p.ContextSwitches
			c.demotions += p.Demotions
		}
		for _, k := range r.Cores {
			c.steals += k.Steals
		}
		if r.Injection != nil {
			c.dmaRetries += r.Injection.DMARetries
		}
		s := r.SyncWaitHist.Snapshot()
		for _, b := range s.Buckets {
			merged[b.UpperNs] += b.Count
		}
		syncMax = max(syncMax, s.MaxNs)
	}
	c.syncWaitP99 = p99(merged, syncMax)
	c.requests = o.requests()
	if f := o.fleet; f != nil {
		c.epochs = uint64(len(f.Epochs))
		if ch := f.Summary.Chaos; ch != nil {
			c.timeouts, c.retries, c.hedges = ch.Timeouts, ch.Retries, ch.Hedges
			c.rehomed, c.failed = ch.Rehomed, ch.Failed
		}
	}
	return c
}

// p99 is the nearest-rank 99th percentile of merged histogram buckets
// (upper bound in ns → count; -1 is the overflow bucket, read as max).
func p99(buckets map[int64]uint64, maxNs int64) int64 {
	var total uint64
	bounds := make([]int64, 0, len(buckets))
	for b, n := range buckets {
		total += n
		if b >= 0 {
			bounds = append(bounds, b)
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	target := (total*99 + 99) / 100
	var cum uint64
	for _, b := range bounds {
		cum += buckets[b]
		if cum >= target {
			return b
		}
	}
	return maxNs
}

// fig4aBands are the paper's Figure 4a ranges for each baseline policy,
// normalized to ITS (EXPERIMENTS.md).
var fig4aBands = map[policy.Kind][2]float64{
	policy.Async:        {2.58, 2.95},
	policy.Sync:         {1.20, 1.75},
	policy.SyncRunahead: {1.08, 1.59},
	policy.SyncPrefetch: {1.10, 1.18},
}

// idleByBatch maps batch → policy → total CPU idle time (Fig 4a's
// quantity), in batch order of first appearance.
func idleByBatch(cells []cell) ([]string, map[string]map[policy.Kind]float64) {
	var order []string
	idle := make(map[string]map[policy.Kind]float64)
	for _, c := range cells {
		if idle[c.batch] == nil {
			idle[c.batch] = make(map[policy.Kind]float64)
			order = append(order, c.batch)
		}
		idle[c.batch][c.kind] = c.run.TotalIdle().Seconds()
	}
	return order, idle
}

// fig4a returns each batch's Figure 4a row (idle normalized to ITS).
func fig4a(cells []cell) ([]string, map[string]map[policy.Kind]float64) {
	order, idle := idleByBatch(cells)
	for _, b := range order {
		its := idle[b][policy.ITS]
		for k, v := range idle[b] {
			idle[b][k] = v / its
		}
	}
	return order, idle
}

// fig4aBandErr is the mean distance of the baseline Figure 4a cells from
// the paper's band (0 inside it), and how many cells fall outside. Only
// batches run under all five policies form Figure 4a rows.
func fig4aBandErr(cells []cell) (mean float64, outside int) {
	order, norm := fig4a(cells)
	n := 0
	for _, b := range order {
		if len(norm[b]) != len(policy.Kinds()) {
			continue
		}
		for _, k := range policy.Kinds() {
			band, ok := fig4aBands[k]
			if !ok {
				continue
			}
			v := norm[b][k]
			n++
			if d := max(band[0]-v, v-band[1], 0); d > 0 {
				mean += d
				outside++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return mean / float64(n), outside
}

// itsIdleSaving is 1 − ITS idle / Sync idle, averaged over batches.
func itsIdleSaving(cells []cell) float64 {
	order, idle := idleByBatch(cells)
	sum := 0.0
	for _, b := range order {
		sum += 1 - idle[b][policy.ITS]/idle[b][policy.Sync]
	}
	if len(order) == 0 {
		return 0
	}
	return sum / float64(len(order))
}

// webSLOAttainment is the share of the web tenant's requests that met
// their SLO; requests that failed or were shed count as misses.
func webSLOAttainment(s *metrics.FleetSummary) float64 {
	for _, t := range s.Tenants {
		if t.Name == "web" && t.Requests > 0 {
			return t.SLOAttainment * float64(t.Completed) / float64(t.Requests)
		}
	}
	return 0
}
