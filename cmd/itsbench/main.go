// Command itsbench regenerates every table and figure of the paper's
// evaluation as text tables, CSV, ASCII bar charts, or one JSON document:
//
//	obs    — §2.2 observation: CPU idle time vs process count (Sync mode)
//	fig4a  — normalized total CPU idle time, 4 batches × 5 policies
//	fig4b  — page-fault counts (unit: 100 k)
//	fig4c  — CPU cache-miss counts (unit: 1 M)
//	fig5a  — normalized avg finish time, top-50 % priority processes
//	fig5b  — normalized avg finish time, bottom-50 % priority processes
//	setup  — §4.1 configuration constants + measured sync-wait distribution
//	xover  — huge-I/O sync-vs-async crossover sweep (§1 motivation)
//	spin   — ITS vs kernel-style hybrid polling (spin-then-block)
//	sens   — Figure 4a robustness across random priority draws
//	ablate — §3.3–§3.4 design ablations and strict-priority scheduling
//	fleet  — multi-machine serving sweep: routing × Sync/ITS per-tenant tails
//	all    — everything above except ablate and fleet (which extend, not
//	         reproduce, the paper, and would shift the frozen `-exp all`
//	         document)
//
// Usage:
//
//	itsbench -exp all -scale 0.25
//	itsbench -exp ablate -scale 0.25
//	itsbench -exp fig4a -format csv
//	itsbench -exp fig4a -format chart
//	itsbench -exp all -format json
//	itsbench -exp fig4a -trace-out trace.json -trace-format chrome
//	itsbench diff before.json after.json
//
// The diff subcommand compares two -format json documents value by value
// and exits non-zero when anything changed at all — the regression check
// for simulator changes that must not move the numbers. EXPERIMENTS.md
// embeds the text output verbatim, checked by TestExperimentsDoc. The
// simulator's own speed is measured by the benchmark under bench/ (see
// bench/README.md).
//
// With -trace-out every simulated run streams its event trace into one file
// (runs become separate trace processes); see docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"itsim/internal/chaos"
	"itsim/internal/core"
	"itsim/internal/kernel"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/report"
	"itsim/internal/sched"
	"itsim/internal/storage"
	"itsim/internal/workload"
)

// params carries the parsed command line.
type params struct {
	exp    string
	scale  float64
	format string
	chaos  string
	core.RunFlags
}

func main() {
	// Subcommand dispatch precedes flag parsing: `itsbench diff a.json
	// b.json` compares two -format json documents (regression check).
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:], os.Stdout))
	}
	var p params
	flag.StringVar(&p.exp, "exp", "all", "experiment: obs|fig4a|fig4b|fig4c|fig5a|fig5b|setup|xover|spin|sens|ablate|fleet|all")
	flag.Float64Var(&p.scale, "scale", 0.25, "workload scale factor")
	flag.StringVar(&p.format, "format", "text", "output format: text|csv|chart|json")
	flag.StringVar(&p.chaos, "chaos", "", "machine-level chaos spec for -exp fleet, e.g. 'seed=1,crashr=20,brownr=40' (empty = off)")
	p.RunFlags.Bind(flag.CommandLine)
	flag.Parse()
	if _, err := run(os.Stdout, p); err != nil {
		fmt.Fprintln(os.Stderr, "itsbench:", err)
		if errors.Is(err, workload.ErrScale) {
			os.Exit(2) // a bad -scale is a usage error, like a bad flag
		}
		os.Exit(1)
	}
}

// emit renders a table in the selected format.
func emit(w io.Writer, t *report.Table, format string) error {
	if format == "csv" {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// docSchemaVersion is stamped into every -format json document. Bump it
// when the document layout changes incompatibly; `itsbench diff` refuses
// (exit 3) to compare documents with different nonzero versions instead of
// mis-reporting the layout change as counter drift.
const docSchemaVersion = 1

// jsonDoc is the -format json output: one document holding every selected
// experiment's data, with durations in virtual nanoseconds.
type jsonDoc struct {
	// SchemaVersion is docSchemaVersion at write time; 0 marks a document
	// from before versioning, which diff compares only with another one.
	SchemaVersion int                     `json:"schema_version,omitempty"`
	Scale         float64                 `json:"scale"`
	Setup         map[string]string       `json:"setup,omitempty"`
	Observation   []core.ObservationPoint `json:"observation,omitempty"`
	// Figures maps figure name → batch → policy → value (normalized for
	// fig4a/fig5a/fig5b, raw unit counts for fig4b/fig4c).
	Figures map[string]map[string]map[string]float64 `json:"figures,omitempty"`
	// Runs holds the full per-run summaries behind the figures, including
	// histogram buckets.
	Runs        []metrics.Summary        `json:"runs,omitempty"`
	Crossover   []core.CrossoverPoint    `json:"crossover,omitempty"`
	Spin        []core.SpinPoint         `json:"spin,omitempty"`
	Sensitivity []core.SensitivityResult `json:"sensitivity,omitempty"`
	// Ablations holds the `-exp ablate` rows.
	Ablations []core.Ablation `json:"ablations,omitempty"`
	// Fleet holds the `-exp fleet` serving-sweep summaries, one per
	// routing × policy cell (see fleet.go).
	Fleet []metrics.FleetSummary `json:"fleet,omitempty"`
}

// run executes the selected experiments and writes their output to w. It
// returns the experiments' data, which -format json writes in place of the
// rendered tables.
func run(w io.Writer, p params) (*jsonDoc, error) {
	// Validate the output format and trace flags before any experiment
	// runs — a grid at full scale is minutes of work to waste on a typo.
	switch p.format {
	case "text", "csv", "chart", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (want text, csv, chart or json)", p.format)
	}
	needGrid := false
	switch p.exp {
	case "obs", "setup", "xover", "spin", "sens", "ablate", "fleet":
	case "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "all":
		needGrid = true
	default:
		return nil, fmt.Errorf("unknown experiment %q", p.exp)
	}
	if err := workload.CheckScale(p.scale); err != nil {
		return nil, err
	}
	chaosCfg, err := chaos.ParseSpec(p.chaos)
	if err != nil {
		return nil, err
	}
	opts, err := p.RunFlags.Options()
	if err != nil {
		return nil, err
	}
	opts.Scale = p.scale
	opts.Chaos = chaosCfg

	doc := &jsonDoc{SchemaVersion: docSchemaVersion, Scale: p.scale}
	tables := w
	if p.format == "json" {
		tables = io.Discard
	}
	err = runExperiments(tables, p.exp, needGrid, opts, p.format, doc)
	if cerr := opts.Tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("finalizing trace: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if p.format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return doc, enc.Encode(doc)
	}
	return doc, nil
}

// runExperiments runs exp, records its data in doc and renders its tables
// to w.
func runExperiments(w io.Writer, exp string, needGrid bool, opts core.Options, format string, doc *jsonDoc) error {
	var grid []core.GridResult
	if needGrid {
		var err error
		grid, err = core.RunGrid(opts)
		if err != nil {
			return err
		}
		for _, gr := range grid {
			for _, k := range policy.Kinds() {
				doc.Runs = append(doc.Runs, gr.Runs[k].Summary())
			}
		}
	}

	show := func(name string) bool { return exp == "all" || exp == name }

	if show("setup") {
		if err := printSetup(w, opts, format, doc); err != nil {
			return err
		}
	}
	if show("obs") {
		if err := printObservation(w, opts, format, doc); err != nil {
			return err
		}
	}
	figures := []struct {
		name   string
		title  string
		metric core.Metric
		norm   bool
	}{
		{"fig4a", "Figure 4a — Normalized Total CPU Idle (Waiting) Time (×, ITS = 1.00)", core.MetricIdle, true},
		{"fig4b", "Figure 4b — Numbers of Page Faults (unit: 100 thousands)",
			func(r *metrics.Run) float64 { return float64(r.TotalMajorFaults()) / 100_000 }, false},
		{"fig4c", "Figure 4c — Numbers of CPU Cache Misses (unit: millions)",
			func(r *metrics.Run) float64 { return float64(r.TotalLLCMisses()) / 1_000_000 }, false},
		{"fig5a", "Figure 5a — Normalized Finish Time, Top 50% Priority (×, ITS = 1.00)", core.MetricTopFinish, true},
		{"fig5b", "Figure 5b — Normalized Finish Time, Bottom 50% Priority (×, ITS = 1.00)", core.MetricBottomFinish, true},
	}
	for _, fig := range figures {
		if !show(fig.name) {
			continue
		}
		if err := printFigure(w, grid, fig.name, fig.title, fig.metric, fig.norm, format, doc); err != nil {
			return err
		}
	}
	if show("xover") {
		if err := printCrossover(w, opts, format, doc); err != nil {
			return err
		}
	}
	if show("spin") {
		if err := printSpin(w, opts, format, doc); err != nil {
			return err
		}
	}
	if show("sens") {
		if err := printSensitivity(w, opts, format, doc); err != nil {
			return err
		}
	}
	// The ablations and the fleet sweep are opt-in only: they extend the
	// paper rather than reproducing a figure, and folding them into "all"
	// would change the byte layout of every frozen `-exp all` regression
	// document.
	switch exp {
	case "ablate":
		return printAblations(w, opts, format, doc)
	case "fleet":
		return printFleet(w, opts, format, doc)
	}
	return nil
}

func printAblations(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	rows, err := core.RunAblations(opts)
	if err != nil {
		return err
	}
	doc.Ablations = rows
	t := report.NewTable("Ablations — one ITS mechanism or scheduler setting changed per row (§3.3–§3.4)",
		"batch", "variant", "idle", "major faults", "LLC misses", "top-50% finish", "prefetch accuracy")
	for _, r := range rows {
		t.AddRow(r.Batch, r.Variant, r.Idle.String(), fmt.Sprint(r.MajorFaults), fmt.Sprint(r.LLCMisses),
			r.TopFinish.String(), fmt.Sprintf("%.1f%%", 100*r.PrefetchAccuracy))
	}
	return emit(w, t, format)
}

func printSensitivity(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	res, err := core.RunSensitivity("1_Data_Intensive", 5, opts)
	if err != nil {
		return err
	}
	doc.Sensitivity = res
	t := report.NewTable("Priority-draw sensitivity — normalized idle over 5 random draws (1_Data_Intensive)",
		"policy", "min", "mean", "max")
	for _, r := range res {
		t.AddRowf(r.Policy.String(), r.Min, r.Mean, r.Max)
	}
	return emit(w, t, format)
}

func printSpin(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	pts, err := core.RunSpinSweep(opts, nil)
	if err != nil {
		return err
	}
	doc.Spin = pts
	if format == "chart" {
		var bars []report.Bar
		for _, pt := range pts {
			bars = append(bars, report.Bar{Label: pt.Name, Value: pt.IdleVsITS})
		}
		return report.BarChart(w,
			"Hybrid polling vs ITS — normalized total CPU idle time (ITS = 1.00)", bars, 40)
	}
	t := report.NewTable("Hybrid polling vs ITS — 2_Data_Intensive (extension experiment)",
		"policy", "idle", "makespan", "idle vs ITS")
	for _, pt := range pts {
		t.AddRow(pt.Name, pt.Idle.String(), pt.Makespan.String(), fmt.Sprintf("%.2f", pt.IdleVsITS))
	}
	return emit(w, t, format)
}

func printFigure(w io.Writer, grid []core.GridResult, name, title string, metric core.Metric, normalized bool, format string, doc *jsonDoc) error {
	value := func(gr core.GridResult, k policy.Kind) float64 {
		if normalized {
			return gr.Normalized(metric, policy.ITS)[k]
		}
		return metric(gr.Runs[k])
	}
	if doc.Figures == nil {
		doc.Figures = make(map[string]map[string]map[string]float64)
	}
	fig := make(map[string]map[string]float64, len(grid))
	for _, gr := range grid {
		row := make(map[string]float64, len(policy.Kinds()))
		for _, k := range policy.Kinds() {
			row[k.String()] = value(gr, k)
		}
		fig[gr.Batch.Name] = row
	}
	doc.Figures[name] = fig
	if format == "chart" {
		groups := make([]string, 0, len(grid))
		series := make(map[string][]report.Bar, len(grid))
		for _, gr := range grid {
			groups = append(groups, gr.Batch.Name)
			var bars []report.Bar
			for _, k := range policy.Kinds() {
				bars = append(bars, report.Bar{Label: k.String(), Value: value(gr, k)})
			}
			series[gr.Batch.Name] = bars
		}
		return report.GroupedBarChart(w, title, groups, series, 40)
	}
	header := []string{"batch"}
	for _, k := range policy.Kinds() {
		header = append(header, k.String())
	}
	t := report.NewTable(title, header...)
	for _, gr := range grid {
		row := []any{gr.Batch.Name}
		for _, k := range policy.Kinds() {
			row = append(row, value(gr, k))
		}
		t.AddRowf(row...)
	}
	return emit(w, t, format)
}

// measuredSyncWait runs the 2_Data_Intensive batch under plain Sync and
// returns its per-fault busy-wait distribution — the measured counterpart of
// the §4.1 constants, with the tail (p99) reported alongside the mean
// because queueing behind prefetches and channel contention make the tail,
// not the mean, the number that decides whether busy-waiting stays cheaper
// than the 7 µs switch.
func measuredSyncWait(opts core.Options) (*metrics.Histogram, error) {
	b, err := workload.BatchByName("2_Data_Intensive")
	if err != nil {
		return nil, err
	}
	run, err := core.RunBatch(b, policy.Sync, opts)
	if err != nil {
		return nil, err
	}
	return run.SyncWaitHist, nil
}

func printSetup(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	dev := storage.DefaultConfig()
	sw, err := measuredSyncWait(opts)
	if err != nil {
		return err
	}
	syncWait := fmt.Sprintf("mean %v, p50 ≤ %v, p99 ≤ %v, max %v (n=%d, Sync on 2_Data_Intensive)",
		sw.Mean(), sw.Quantile(0.5), sw.Quantile(0.99), sw.Max(), sw.Count())
	rows := [][2]string{
		{"LLC", "8 MB, 16-way, 64 B lines (half becomes pre-execute cache for Sync_Runahead/ITS)"},
		{"Context switch", kernel.ContextSwitchCost.String()},
		{"DRAM access", "50ns"},
		{"ULL device read", fmt.Sprintf("%v (write %v, %d channels)", dev.ReadLatency, dev.WriteLatency, dev.Channels)},
		{"PCIe", "4 lanes × 3.983 GB/s"},
		{"Time slices", fmt.Sprintf("%v (highest prio) … %v (lowest), SCHED_RR", sched.MaxSlice, sched.MinSlice)},
		{"Page size", "4 KiB, 4-level page table"},
		{"Sync fault wait (measured)", syncWait},
	}
	doc.Setup = make(map[string]string, len(rows))
	for _, r := range rows {
		doc.Setup[r[0]] = r[1]
	}
	t := report.NewTable("Table — §4.1 evaluation setup (simulated platform constants)", "constant", "value")
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return emit(w, t, format)
}

func printObservation(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	pts, err := core.RunObservation(opts)
	if err != nil {
		return err
	}
	doc.Observation = pts
	base := pts[0].IdleTime
	if format == "chart" {
		var bars []report.Bar
		for _, pt := range pts {
			bars = append(bars, report.Bar{
				Label: fmt.Sprintf("%d processes", pt.Processes),
				Value: float64(pt.IdleTime) / float64(base),
			})
		}
		return report.BarChart(w,
			"§2.2 observation — CPU idle time vs process count (normalized to 2 processes)", bars, 40)
	}
	t := report.NewTable("§2.2 observation — CPU idle time vs process count (Sync mode, normalized to 2 processes)",
		"processes", "idle time", "normalized", "idle fraction")
	for _, pt := range pts {
		norm := 0.0
		if base > 0 {
			norm = float64(pt.IdleTime) / float64(base)
		}
		t.AddRow(fmt.Sprint(pt.Processes), pt.IdleTime.String(),
			fmt.Sprintf("%.2f×", norm), fmt.Sprintf("%.1f%%", 100*pt.IdleFraction))
	}
	return emit(w, t, format)
}

func printCrossover(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	pts, err := core.RunCrossover(opts, nil)
	if err != nil {
		return err
	}
	doc.Crossover = pts
	if format == "chart" {
		var bars []report.Bar
		for _, pt := range pts {
			bars = append(bars, report.Bar{
				Label: fmt.Sprintf("%4d KiB sync/async", pt.IOBytes/1024),
				Value: pt.SyncMakespan.Seconds() / pt.AsyncMakespan.Seconds(),
			})
		}
		return report.BarChart(w,
			"Huge-I/O crossover — Sync/Async makespan ratio (>1 ⇒ Async wins)", bars, 40)
	}
	t := report.NewTable("Huge-I/O crossover — Sync vs Async as the swap-in unit grows (§1 motivation)",
		"I/O unit", "Sync makespan", "Async makespan", "Sync idle", "Async idle", "winner")
	for _, pt := range pts {
		t.AddRow(fmt.Sprintf("%d KiB", pt.IOBytes/1024),
			pt.SyncMakespan.String(), pt.AsyncMakespan.String(),
			pt.SyncIdle.String(), pt.AsyncIdle.String(), pt.Winner)
	}
	return emit(w, t, format)
}
