package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"itsim/internal/policy"
)

// tinySize shrinks every workload to a sliver of its benchmark work.
const tinySize = 0.03

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size,
// untraced and traced, and compares the metrics it prints with
// BENCHMARK.json by name and unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for i, wj := range bj.Workloads {
		w, err := workloadByName(wj.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, wj.Name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			want := make(map[string]string)
			if traced {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			// A traced pass needs enough host time for a CPU profile.
			cfg := config{seed: 7, trace: traced, size: tinySize, outDir: t.TempDir()}
			if traced {
				cfg.seconds = 2 * time.Second
			}
			res, err := measure(w, cfg, golden, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %s, BENCHMARK.json says %s", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, traced, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// digestOf builds w's inputs and returns the digest of one repetition.
func digestOf(t *testing.T, w workloadDef, seed uint64) string {
	t.Helper()
	j, err := w.setup(seed, tinySize, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.close(); err != nil {
			t.Error(err)
		}
	}()
	out, err := j.rep(nil, w.name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := check(out, nil, w.name)
	if err != nil {
		t.Fatal(err)
	}
	if v.bad != 0 {
		t.Errorf("%s seed %d: %d of %d runs failed an invariant", w.name, seed, v.bad, v.runs)
	}
	return v.digest
}

// TestSeedDeterminesDigest checks that the seed alone picks the inputs:
// the same seed rebuilds identical runs, and another seed other runs.
func TestSeedDeterminesDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digestOf(t, w, 7), digestOf(t, w, 7), digestOf(t, w, 0)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 0 and 7 gave the same digest %s", w.name, a)
		}
	}
}

// fig4aTable reads EXPERIMENTS.md's Figure 4a table: batch → policy →
// normalized idle.
func fig4aTable(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "## Figure 4a")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Figure 4a section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var header []string
	table := make(map[string]map[string]float64)
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		if header == nil {
			header = cols
			continue
		}
		row := make(map[string]float64)
		for i, c := range cols[1:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("Figure 4a cell %q: %v", c, err)
			}
			row[header[i+1]] = v
		}
		table[cols[0]] = row
	}
	if len(table) != 4 {
		t.Fatalf("Figure 4a table has %d rows, want 4", len(table))
	}
	return table
}

// TestPaperGridReproducesFigure4a runs one benchmark-size repetition of
// paper-grid at seed 0: its digest is the committed one, it reproduces
// EXPERIMENTS.md's Figure 4a to two decimals, and 7 of the 16 baseline
// cells fall outside the paper's bands, by 0.051 on average.
func TestPaperGridReproducesFigure4a(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper grid")
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("paper-grid")
	if err != nil {
		t.Fatal(err)
	}
	j, err := w.setup(0, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	out, err := j.rep(nil, w.name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := check(out, nil, w.name)
	if err != nil {
		t.Fatal(err)
	}
	if v.digest != golden[w.name] || v.bad != 0 {
		t.Errorf("digest %s (%d bad runs), golden.json has %s", v.digest, v.bad, golden[w.name])
	}

	want := fig4aTable(t)
	order, got := fig4a(out.cells)
	if len(order) != len(want) {
		t.Fatalf("grid has %d batches, EXPERIMENTS.md %d", len(order), len(want))
	}
	for _, b := range order {
		for _, k := range policy.Kinds() {
			g := fmt.Sprintf("%.2f", got[b][k])
			if doc := fmt.Sprintf("%.2f", want[b][k.String()]); g != doc {
				t.Errorf("Figure 4a %s/%s = %s, EXPERIMENTS.md says %s", b, k, g, doc)
			}
		}
	}
	mean, outside := fig4aBandErr(out.cells)
	if outside != 7 || math.Abs(mean-0.051) > 0.001 {
		t.Errorf("fig4a_band_err = %.4f with %d cells outside, want 0.051 with 7", mean, outside)
	}
}
