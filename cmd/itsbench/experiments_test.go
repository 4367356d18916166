package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"itsim/internal/core"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// TestExperimentsDoc runs the canonical experiments once — `all` and
// `ablate` at scale 0.25, `fleet` at 0.5 — and checks EXPERIMENTS.md
// against them: every printed table must appear verbatim as a ```text block
// starting with the same title line, every such block must be a printed
// table, and the prose claims must hold on the full-precision results.
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical experiments in -short mode")
	}
	if raceEnabled {
		t.Skip("canonical experiments take minutes under the race detector")
	}
	var out bytes.Buffer
	exp := func(name string, scale float64) *jsonDoc {
		doc, err := run(&out, params{exp: name, scale: scale, format: "text"})
		if err != nil {
			t.Fatalf("-exp %s: %v", name, err)
		}
		return doc
	}
	all, abl, fleet := exp("all", 0.25), exp("ablate", 0.25), exp("fleet", 0.5)
	checkBlocks(t, "../../EXPERIMENTS.md", out.String())

	// round is v at the precision the prose states it.
	round := func(v float64, decimals int) float64 {
		p := math.Pow(10, float64(decimals))
		return math.Round(v*p) / p
	}
	// spans checks a prose range "lo–hi": the smallest and largest of vals
	// round to lo and hi.
	spans := func(claim string, vals []float64, decimals int, lo, hi float64) {
		t.Helper()
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		if round(mn, decimals) != lo || round(mx, decimals) != hi {
			t.Errorf("%s: measured %.4g–%.4g, EXPERIMENTS.md says %v–%v", claim, mn, mx, lo, hi)
		}
	}

	// §2.2: idle exceeds 22 % and grows superlinearly with the process count.
	perProc := 0.0
	for _, pt := range all.Observation {
		if pt.IdleFraction <= 0.22 || float64(pt.IdleTime)/float64(pt.Processes) <= perProc {
			t.Errorf("observation: %d processes idle %v (%.3f), want > 22 %% and more per process than with one fewer",
				pt.Processes, pt.IdleTime, pt.IdleFraction)
		}
		perProc = float64(pt.IdleTime) / float64(pt.Processes)
	}

	runs := make(map[[2]string]metrics.Summary, len(all.Runs))
	for _, r := range all.Runs {
		runs[[2]string{r.Policy, r.Batch}] = r
	}
	fig := func(name, batch string, k policy.Kind) float64 { return all.Figures[name][batch][k.String()] }
	// col is one policy's column of a figure, over every batch.
	col := func(name string, k policy.Kind) []float64 {
		var v []float64
		for _, b := range workload.Batches() {
			v = append(v, fig(name, b.Name, k))
		}
		return v
	}
	var itsSaving, faultSaving []float64
	for _, b := range workload.Batches() {
		n := b.Name
		// Fig 4a: ITS < Sync_Prefetch < Sync_Runahead < Sync < Async.
		order := []policy.Kind{policy.ITS, policy.SyncPrefetch, policy.SyncRunahead, policy.Sync, policy.Async}
		for i := 1; i < len(order); i++ {
			if fig("fig4a", n, order[i-1]) >= fig("fig4a", n, order[i]) {
				t.Errorf("fig4a %s: %v not below %v", n, order[i-1], order[i])
			}
		}
		itsSaving = append(itsSaving, 100*(1-1/fig("fig4a", n, policy.Sync)))

		// Fig 4b: ITS fewest faults, Sync_Prefetch second.
		faults := func(k policy.Kind) float64 { return float64(runs[[2]string{k.String(), n}].MajorFaults) }
		for _, k := range []policy.Kind{policy.Async, policy.Sync, policy.SyncRunahead} {
			if faults(policy.ITS) >= faults(policy.SyncPrefetch) || faults(policy.SyncPrefetch) >= faults(k) {
				t.Errorf("fig4b %s: want ITS < Sync_Prefetch < %v", n, k)
			}
		}
		faultSaving = append(faultSaving, 100*(1-faults(policy.ITS)/faults(policy.Sync)))

		// Fig 4c: Sync_Runahead lowest; Sync_Prefetch not below Sync; ITS
		// above Sync by under 5 %.
		for _, k := range []policy.Kind{policy.Async, policy.Sync, policy.SyncPrefetch, policy.ITS} {
			if fig("fig4c", n, policy.SyncRunahead) >= fig("fig4c", n, k) {
				t.Errorf("fig4c %s: Sync_Runahead not below %v", n, k)
			}
		}
		if r := fig("fig4c", n, policy.ITS) / fig("fig4c", n, policy.Sync); r <= 1 || r >= 1.05 ||
			fig("fig4c", n, policy.SyncPrefetch) < fig("fig4c", n, policy.Sync) {
			t.Errorf("fig4c %s: ITS/Sync misses %.3f, want in (1, 1.05), and Sync_Prefetch not below Sync", n, r)
		}

		// Fig 5a: Async worst; only 2_Data_Intensive Sync_Prefetch below ITS.
		// Fig 5b: every baseline above ITS.
		for _, k := range []policy.Kind{policy.Sync, policy.SyncRunahead, policy.SyncPrefetch, policy.Async} {
			if k != policy.Async && fig("fig5a", n, k) >= fig("fig5a", n, policy.Async) {
				t.Errorf("fig5a %s: %v not below Async", n, k)
			}
			if below, want := fig("fig5a", n, k) < 1, n == "2_Data_Intensive" && k == policy.SyncPrefetch; below != want {
				t.Errorf("fig5a %s %v = %.3f: below ITS is %v, want %v", n, k, fig("fig5a", n, k), below, want)
			}
			if fig("fig5b", n, k) <= 1 {
				t.Errorf("fig5b %s: %v = %.3f, want above 1", n, k, fig("fig5b", n, k))
			}
		}
	}
	spans("fig4a Async", col("fig4a", policy.Async), 2, 2.59, 3.19)
	spans("fig4a Sync", col("fig4a", policy.Sync), 2, 1.55, 1.83)
	spans("fig4a Sync_Prefetch", col("fig4a", policy.SyncPrefetch), 2, 1.08, 1.36)
	spans("fig4a ITS idle saving over Sync (%)", itsSaving, 1, 35.7, 45.5)
	spans("fig4b ITS fault saving over Sync (%)", faultSaving, 1, 70.0, 86.4)
	spans("fig5a Sync", col("fig5a", policy.Sync), 2, 1.08, 1.47)
	spans("fig5a Async", col("fig5a", policy.Async), 2, 1.67, 2.78)
	spans("fig5b Sync", col("fig5b", policy.Sync), 2, 1.34, 1.75)
	spans("fig5b Async", col("fig5b", policy.Async), 2, 1.34, 2.12)
	if v := round(fig("fig5b", "2_Data_Intensive", policy.SyncPrefetch), 3); v != 1.096 {
		t.Errorf("fig5b lowest baseline (2_Data_Intensive Sync_Prefetch) = %v, EXPERIMENTS.md says 1.096", v)
	}

	// xover: Sync wins up to 32 KiB, Async from 64 KiB.
	for _, pt := range all.Crossover {
		if (pt.Winner == "Sync") != (pt.IOBytes <= 32<<10) {
			t.Errorf("xover %d KiB: winner %s", pt.IOBytes>>10, pt.Winner)
		}
	}

	// spin: no Spin_Block row below 1.55× ITS; thresholds above the 3 µs
	// read degenerate to Sync; 3 µs is the worst row.
	spin := make(map[string]core.SpinPoint)
	worst := all.Spin[0]
	for _, pt := range all.Spin {
		spin[pt.Name] = pt
		if pt.IdleVsITS > worst.IdleVsITS {
			worst = pt
		}
		if strings.HasPrefix(pt.Name, "Spin_Block") && pt.IdleVsITS < 1.55 {
			t.Errorf("spin %s: %.3f× ITS, want ≥ 1.55", pt.Name, pt.IdleVsITS)
		}
	}
	if sync := spin["Sync"].Idle; worst.Threshold != 3*sim.Microsecond ||
		spin["Spin_Block_7.000µs"].Idle != sync || spin["Spin_Block_15.000µs"].Idle != sync {
		t.Errorf("spin: worst row %s, want the 3 µs threshold; 7 and 15 µs idle %v and %v, want Sync's %v",
			worst.Name, spin["Spin_Block_7.000µs"].Idle, spin["Spin_Block_15.000µs"].Idle, sync)
	}

	// sens: min(Async) > max(Sync), and no baseline below ITS in any draw.
	sens := make(map[policy.Kind]core.SensitivityResult)
	for _, r := range all.Sensitivity {
		sens[r.Policy] = r
		if r.Min < 1 {
			t.Errorf("sens: %v min %.3f below ITS", r.Policy, r.Min)
		}
	}
	if sens[policy.Async].Min <= sens[policy.Sync].Max {
		t.Errorf("sens: min(Async) %.3f not above max(Sync) %.3f", sens[policy.Async].Min, sens[policy.Sync].Max)
	}

	// ablate: every variant name is unique.
	rows := make(map[string]core.Ablation, len(abl.Ablations))
	for _, r := range abl.Ablations {
		rows[r.Variant] = r
	}
	faults := func(a, b core.Ablation) float64 { return float64(a.MajorFaults) / float64(b.MajorFaults) }
	idle := func(a, b core.Ablation) float64 { return float64(a.Idle) / float64(b.Idle) }
	// Degree: faults fall with n but saturate near n = 8; accuracy rises.
	degree := []core.Ablation{rows["ITS n=2"], rows["ITS n=4"], rows["ITS n=8"], rows["ITS n=16"]}
	for i := 1; i < len(degree); i++ {
		a, b := degree[i-1], degree[i]
		if faults(b, a) >= 1 || b.PrefetchAccuracy <= a.PrefetchAccuracy || i > 1 && faults(b, a) <= faults(a, degree[i-2]) {
			t.Errorf("ablate %s → %s: faults %d → %d, accuracy %.3f → %.3f; want fewer faults, by a smaller share "+
				"than the doubling before, and higher accuracy", a.Variant, b.Variant, a.MajorFaults, b.MajorFaults,
				a.PrefetchAccuracy, b.PrefetchAccuracy)
		}
	}
	if drop := 1 - faults(degree[3], degree[2]); drop >= 0.10 {
		t.Errorf("ablate: n = 8 → 16 removes %.1f%% of faults, want under 10%%", 100*drop)
	}
	// The 50 % pre-execute cache row is the default ITS run, as is n = 8.
	full, px50 := degree[2], rows["ITS pre-exec cache 50%"]
	px50.Variant = full.Variant
	if px50 != full {
		t.Errorf("ablate: 50%% pre-exec cache row %+v differs from n = 8 row %+v", px50, full)
	}
	// Idle rises monotonically with the pre-execute cache fraction.
	if px25, px75 := rows["ITS pre-exec cache 25%"], rows["ITS pre-exec cache 75%"]; px25.Idle >= px50.Idle || px50.Idle >= px75.Idle {
		t.Errorf("ablate: idle over pre-exec cache 25/50/75%% = %v/%v/%v, want rising", px25.Idle, px50.Idle, px75.Idle)
	}
	// Without pre-execution idle moves under 0.1 %, with fewer faults and
	// more LLC misses; without prefetch idle rises over 40 % and faults
	// roughly triple.
	if r := rows["ITS no pre-execution"]; math.Abs(idle(r, full)-1) >= 0.001 || r.MajorFaults >= full.MajorFaults || r.LLCMisses <= full.LLCMisses {
		t.Errorf("ablate no pre-execution: %+v against %+v", r, full)
	}
	if r := rows["ITS no prefetch"]; idle(r, full) <= 1.4 || math.Round(faults(r, full)) != 3 {
		t.Errorf("ablate no prefetch: %+v against %+v", r, full)
	}
	// Dropping self-sacrificing roughly triples faults (2.84×).
	if r, its := rows["ITS no self-sacrificing"], rows["ITS"]; round(faults(r, its), 2) != 2.84 || r.Idle <= its.Idle {
		t.Errorf("ablate no self-sacrificing: faults %.3f×, idle %v vs %v; EXPERIMENTS.md says 2.84× and higher idle",
			faults(r, its), r.Idle, its.Idle)
	}
	// Strict priority: Sync/ITS idle 1.62 → 1.72, top-50 % finish 1.31 → 1.16.
	for _, c := range []struct {
		sched           string
		idle, topFinish float64
	}{{"NICE RR", 1.62, 1.31}, {"strict priority", 1.72, 1.16}} {
		s, i := rows["Sync "+c.sched], rows["ITS "+c.sched]
		if round(idle(s, i), 2) != c.idle || round(float64(s.TopFinish)/float64(i.TopFinish), 2) != c.topFinish {
			t.Errorf("ablate %s: Sync %+v, ITS %+v; EXPERIMENTS.md says idle %v× and top-50%% finish %v×",
				c.sched, s, i, c.idle, c.topFinish)
		}
	}

	// fleet: Tenants are in fleetTenantSpec order.
	const web, train = 0, 1
	cells := make(map[string]metrics.FleetSummary, len(fleet.Fleet))
	for _, s := range fleet.Fleet {
		cells[s.Routing+"/"+s.Policy] = s
	}
	p99 := func(routing string, k policy.Kind, tenant int) int64 {
		return cells[routing+"/"+k.String()].Tenants[tenant].Latency.P99Ns
	}
	// ITS puts web's p50 and p99 one bucket below Sync's under every
	// load-spreading router, and health matches least-loaded without chaos.
	for _, routing := range []string{"round-robin", "least-loaded", "health"} {
		s, i := cells[routing+"/Sync"].Tenants[web].Latency, cells[routing+"/ITS"].Tenants[web].Latency
		if 2*i.P50Ns != s.P50Ns || 2*i.P99Ns != s.P99Ns {
			t.Errorf("fleet %s web: ITS p50/p99 %d/%d ns, Sync %d/%d ns; want one bucket lower",
				routing, i.P50Ns, i.P99Ns, s.P50Ns, s.P99Ns)
		}
	}
	for _, k := range fleetPolicies {
		if !reflect.DeepEqual(cells["health/"+k.String()].Tenants, cells["least-loaded/"+k.String()].Tenants) {
			t.Errorf("fleet %v: health differs from least-loaded", k)
		}
	}
	// Locality cuts train's p99 against round-robin by 2× under Sync and
	// 4× under ITS, and ITS takes web's p99 there one bucket lower.
	if p99("round-robin", policy.Sync, train) != 2*p99("locality", policy.Sync, train) ||
		p99("round-robin", policy.ITS, train) != 4*p99("locality", policy.ITS, train) ||
		p99("locality", policy.Sync, web) != 2*p99("locality", policy.ITS, web) {
		t.Error("fleet locality: want train p99 2× (Sync) and 4× (ITS) below round-robin's, and ITS web p99 one bucket below Sync's")
	}
}

// checkBlocks compares the ```text blocks of the markdown file at path with
// the printed tables, matching each table to its block by the title line.
func checkBlocks(t *testing.T, path, printed string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]string)
	for _, rest := range strings.Split(string(data), "\n```text\n")[1:] {
		block, _, ok := strings.Cut(rest, "\n```\n")
		title, _, _ := strings.Cut(block, "\n")
		if _, dup := blocks[title]; dup || !ok {
			t.Errorf("%s: block %q is unterminated or shares its title", path, title)
		}
		blocks[title] = block
	}
	for _, table := range strings.Split(strings.TrimSuffix(printed, "\n\n"), "\n\n") {
		title, _, _ := strings.Cut(table, "\n")
		block, ok := blocks[title]
		delete(blocks, title)
		if !ok {
			t.Errorf("%s has no ```text block for this table:\n%s", path, table)
		} else if block != table {
			t.Errorf("%s: block %q differs from the output, which is:\n%s", path, title, table)
		}
	}
	for _, title := range sortedKeys(blocks) {
		t.Errorf("%s: block %q matches no printed table", path, title)
	}
}
