package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// diffMain is the `itsbench diff` subcommand: it compares two -format json
// documents and reports every metric whose value changed — the ROADMAP's
// regression check, at zero tolerance. Exit status: 0 when the documents
// agree, 1 on drift, 2 on usage or read errors, 3 when the documents carry
// different schema versions (a layout change, not drift; an unversioned
// document counts as version 0).
//
//	itsbench -exp all -format json > before.json
//	# ...change the simulator...
//	itsbench -exp all -format json > after.json
//	itsbench diff before.json after.json
func diffMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: itsbench diff old.json new.json") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldDoc, err := loadDoc(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsbench diff:", err)
		return 2
	}
	newDoc, err := loadDoc(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsbench diff:", err)
		return 2
	}
	if oldDoc.SchemaVersion != newDoc.SchemaVersion {
		fmt.Fprintf(os.Stderr,
			"itsbench diff: schema version mismatch: %s is v%d, %s is v%d; "+
				"regenerate the older document before comparing\n",
			fs.Arg(0), oldDoc.SchemaVersion, fs.Arg(1), newDoc.SchemaVersion)
		return 3
	}
	drifts := diffDocs(oldDoc, newDoc)
	if len(drifts) == 0 {
		fmt.Fprintf(out, "itsbench diff: no drift (%d figures, %d runs, %d fleet sweeps compared)\n",
			len(oldDoc.Figures), len(oldDoc.Runs), len(oldDoc.Fleet))
		return 0
	}
	for _, d := range drifts {
		fmt.Fprintln(out, d)
	}
	fmt.Fprintf(out, "itsbench diff: %d metrics drifted\n", len(drifts))
	return 1
}

func loadDoc(path string) (*jsonDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc jsonDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// diffDocs returns one line per drifted metric, sorted for stable output.
func diffDocs(oldDoc, newDoc *jsonDoc) []string {
	var drifts []string
	report := func(name string, a, b float64) {
		if a != b {
			drifts = append(drifts, fmt.Sprintf("%s: %v -> %v (%+.3g%%)",
				name, a, b, relDrift(a, b)*100))
		}
	}

	// Figures: figure → batch → policy → value.
	for _, fig := range sortedKeys(oldDoc.Figures) {
		newFig, ok := newDoc.Figures[fig]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("figures/%s: missing from new document", fig))
			continue
		}
		for _, batch := range sortedKeys(oldDoc.Figures[fig]) {
			newRow, ok := newFig[batch]
			if !ok {
				drifts = append(drifts, fmt.Sprintf("figures/%s/%s: missing from new document", fig, batch))
				continue
			}
			for _, pol := range sortedKeys(oldDoc.Figures[fig][batch]) {
				nv, ok := newRow[pol]
				if !ok {
					drifts = append(drifts, fmt.Sprintf("figures/%s/%s/%s: missing from new document", fig, batch, pol))
					continue
				}
				report(fmt.Sprintf("figures/%s/%s/%s", fig, batch, pol),
					oldDoc.Figures[fig][batch][pol], nv)
			}
			for _, pol := range sortedKeys(newRow) {
				if _, ok := oldDoc.Figures[fig][batch][pol]; !ok {
					drifts = append(drifts, fmt.Sprintf("figures/%s/%s/%s: only in new document", fig, batch, pol))
				}
			}
		}
		for _, batch := range sortedKeys(newFig) {
			if _, ok := oldDoc.Figures[fig][batch]; !ok {
				drifts = append(drifts, fmt.Sprintf("figures/%s/%s: only in new document", fig, batch))
			}
		}
	}
	for _, fig := range sortedKeys(newDoc.Figures) {
		if _, ok := oldDoc.Figures[fig]; !ok {
			drifts = append(drifts, fmt.Sprintf("figures/%s: only in new document", fig))
		}
	}

	// Run summaries, keyed by policy/batch.
	type runKey struct{ policy, batch string }
	oldRuns := make(map[runKey]int, len(oldDoc.Runs))
	for i, r := range oldDoc.Runs {
		oldRuns[runKey{r.Policy, r.Batch}] = i
	}
	seen := make(map[runKey]bool, len(newDoc.Runs))
	for _, r := range newDoc.Runs {
		key := runKey{r.Policy, r.Batch}
		seen[key] = true
		i, ok := oldRuns[key]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("runs/%s/%s: only in new document", r.Policy, r.Batch))
			continue
		}
		o := oldDoc.Runs[i]
		prefix := fmt.Sprintf("runs/%s/%s/", r.Policy, r.Batch)
		type metricPair struct {
			name     string
			old, new float64
		}
		fields := []metricPair{
			{"makespan_ns", float64(o.MakespanNs), float64(r.MakespanNs)},
			{"total_idle_ns", float64(o.TotalIdleNs), float64(r.TotalIdleNs)},
			{"scheduler_idle_ns", float64(o.SchedulerIdleNs), float64(r.SchedulerIdleNs)},
			{"context_switch_time_ns", float64(o.ContextSwitchTimeNs), float64(r.ContextSwitchTimeNs)},
			{"fault_handler_time_ns", float64(o.FaultHandlerTimeNs), float64(r.FaultHandlerTimeNs)},
			{"total_stolen_ns", float64(o.TotalStolenNs), float64(r.TotalStolenNs)},
			{"major_faults", float64(o.MajorFaults), float64(r.MajorFaults)},
			{"minor_faults", float64(o.MinorFaults), float64(r.MinorFaults)},
			{"llc_misses", float64(o.LLCMisses), float64(r.LLCMisses)},
			{"context_switches", float64(o.ContextSwitches), float64(r.ContextSwitches)},
			{"prefetch_accuracy", o.PrefetchAccuracy, r.PrefetchAccuracy},
			{"avg_finish_ns", float64(o.AvgFinishNs), float64(r.AvgFinishNs)},
			{"top_half_avg_finish_ns", float64(o.TopHalfAvgFinishNs), float64(r.TopHalfAvgFinishNs)},
			{"bottom_half_avg_finish_ns", float64(o.BottomHalfAvgFinishNs), float64(r.BottomHalfAvgFinishNs)},
			{"demoted_waits", float64(o.DemotedWaits), float64(r.DemotedWaits)},
			{"prefetch_throttled", float64(o.PrefetchThrottled), float64(r.PrefetchThrottled)},
		}
		oi, ni := o.Injection, r.Injection
		if (oi == nil) != (ni == nil) {
			have := "new"
			if ni == nil {
				have = "old"
			}
			drifts = append(drifts, fmt.Sprintf("%sfault_injection: only in %s document", prefix, have))
		} else if oi != nil {
			fields = append(fields,
				metricPair{"fault_injection/tail_spikes", float64(oi.TailSpikes), float64(ni.TailSpikes)},
				metricPair{"fault_injection/channel_stalls", float64(oi.ChannelStalls), float64(ni.ChannelStalls)},
				metricPair{"fault_injection/dma_failures", float64(oi.DMAFailures), float64(ni.DMAFailures)},
				metricPair{"fault_injection/dma_retries", float64(oi.DMARetries), float64(ni.DMARetries)},
			)
		}
		for _, f := range fields {
			report(prefix+f.name, f.old, f.new)
		}
	}
	for _, r := range oldDoc.Runs {
		if !seen[runKey{r.Policy, r.Batch}] {
			drifts = append(drifts, fmt.Sprintf("runs/%s/%s: missing from new document", r.Policy, r.Batch))
		}
	}

	// Fleet summaries, keyed by routing/policy: the serving sweep's tails
	// and attainment, plus resilience counters when either document carries
	// them. This is the zero-chaos equivalence gate's comparator — chaos
	// counters appearing in only one document always register as drift.
	type fleetKey struct{ routing, policy string }
	oldFleet := make(map[fleetKey]int, len(oldDoc.Fleet))
	for i, s := range oldDoc.Fleet {
		oldFleet[fleetKey{s.Routing, s.Policy}] = i
	}
	seenFleet := make(map[fleetKey]bool, len(newDoc.Fleet))
	for _, s := range newDoc.Fleet {
		key := fleetKey{s.Routing, s.Policy}
		seenFleet[key] = true
		i, ok := oldFleet[key]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("fleet/%s/%s: only in new document", s.Routing, s.Policy))
			continue
		}
		o := oldDoc.Fleet[i]
		prefix := fmt.Sprintf("fleet/%s/%s/", s.Routing, s.Policy)
		report(prefix+"makespan_ns", float64(o.MakespanNs), float64(s.MakespanNs))
		report(prefix+"completed", float64(o.Completed), float64(s.Completed))
		oldTenants := make(map[string]int, len(o.Tenants))
		for ti, t := range o.Tenants {
			oldTenants[t.Name] = ti
		}
		for _, t := range s.Tenants {
			ti, ok := oldTenants[t.Name]
			if !ok {
				drifts = append(drifts, fmt.Sprintf("%stenants/%s: only in new document", prefix, t.Name))
				continue
			}
			ot := o.Tenants[ti]
			tp := fmt.Sprintf("%stenants/%s/", prefix, t.Name)
			report(tp+"completed", float64(ot.Completed), float64(t.Completed))
			report(tp+"latency_p99_ns", float64(ot.Latency.P99Ns), float64(t.Latency.P99Ns))
			report(tp+"slo_attainment", ot.SLOAttainment, t.SLOAttainment)
			report(tp+"timed_out", float64(ot.TimedOut), float64(t.TimedOut))
			report(tp+"retries", float64(ot.Retries), float64(t.Retries))
			report(tp+"hedges", float64(ot.Hedges), float64(t.Hedges))
			report(tp+"shed", float64(ot.Shed), float64(t.Shed))
			report(tp+"failed", float64(ot.Failed), float64(t.Failed))
		}
		oc, nc := o.Chaos, s.Chaos
		if (oc == nil) != (nc == nil) {
			have := "new"
			if nc == nil {
				have = "old"
			}
			drifts = append(drifts, fmt.Sprintf("%schaos: only in %s document", prefix, have))
		} else if oc != nil {
			report(prefix+"chaos/crashes", float64(oc.Crashes), float64(nc.Crashes))
			report(prefix+"chaos/flaps", float64(oc.Flaps), float64(nc.Flaps))
			report(prefix+"chaos/brownouts", float64(oc.Brownouts), float64(nc.Brownouts))
			report(prefix+"chaos/rehomed", float64(oc.Rehomed), float64(nc.Rehomed))
			report(prefix+"chaos/shed", float64(oc.Shed), float64(nc.Shed))
			report(prefix+"chaos/failed", float64(oc.Failed), float64(nc.Failed))
		}
	}
	for _, s := range oldDoc.Fleet {
		if !seenFleet[fleetKey{s.Routing, s.Policy}] {
			drifts = append(drifts, fmt.Sprintf("fleet/%s/%s: missing from new document", s.Routing, s.Policy))
		}
	}
	return drifts
}

// relDrift is |b-a| relative to |a| (or to |b| when a is zero, so appearing
// and disappearing values always register).
func relDrift(a, b float64) float64 {
	base := math.Abs(a)
	if base == 0 {
		base = math.Abs(b)
	}
	if base == 0 {
		return 0
	}
	return math.Abs(b-a) / base
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
