package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildItslint compiles the command once per test into a temp dir.
func buildItslint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs itslint; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "itslint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRunMode drives the built `itslint run` over real packages named by
// relative paths: the driver resolves them through go list and counts the
// suppressions of the named packages only, not of their dependencies.
func TestRunMode(t *testing.T) {
	bin := buildItslint(t)

	// internal/replay carries exactly one justified //itslint:allow
	// directive (see docs/LINTS.md); the package must come up clean with
	// that suppression counted.
	cmd := exec.Command(bin, "run", "./internal/replay")
	cmd.Dir = repoRoot(t)
	var stderr bytes.Buffer
	cmd.Stdout = &stderr
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("itslint run ./internal/replay: %v\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "suppressed by //itslint:allow") {
		t.Errorf("summary line missing from output:\n%s", out)
	}
	if !strings.Contains(out, "entropyflow=1") {
		t.Errorf("expected entropyflow=1 suppressions in summary, got:\n%s", out)
	}

	// cmd/itssim imports replay, whose suppression belongs to replay alone.
	code, _, errOut := runIn(t, repoRoot(t), bin, "run", "./cmd/itssim")
	if want := "itslint: clean, no //itslint:allow suppressions\n"; code != 0 || errOut != want {
		t.Errorf("itslint run ./cmd/itssim: exit %d, stderr %q, want exit 0 and %q", code, errOut, want)
	}

	// The deterministic set does not depend on the patterns: cpu is in it
	// because smp imports it, also when cpu is the only package named. On
	// a copy of the module, a map range added to cpu fails the lint.
	dir := copyModule(t)
	maprange := "package cpu\n\nfunc sum(m map[int]int) (n int) {\n\tfor _, v := range m {\n\t\tn += v\n\t}\n\treturn n\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "internal", "cpu", "maprange.go"), []byte(maprange), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runIn(t, dir, bin, "run", "./internal/cpu")
	if code != 1 || !strings.Contains(errOut, "internal/cpu/maprange.go:4:2: range over map map[int]int in deterministic package itsim/internal/cpu") {
		t.Errorf("itslint run ./internal/cpu with a map range: exit %d, want 1 and the range reported:\n%s", code, errOut)
	}
}

// copyModule copies what the simulator packages need of this module —
// go.mod, vendor/ and internal/ without the analyzers — into a temp dir.
func copyModule(t *testing.T) string {
	t.Helper()
	root, dir := repoRoot(t), t.TempDir()
	for _, sub := range []string{"go.mod", "vendor", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "analysis" {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, path)
			if d.IsDir() {
				return os.MkdirAll(filepath.Join(dir, rel), 0o755)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeFixtureModule lays out a throwaway `module itsim` tree containing a
// deterministic-set package with one fixable seedflow violation and one
// //itslint:allow-suppressed violation, plus the prng package the suggested
// fix rewrites into and a stub simulator root, smp, that puts chaos in the
// deterministic set. extra adds or replaces files (path → content).
func writeFixtureModule(t *testing.T, extra map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module itsim\n\ngo 1.22\n",
		"internal/prng/prng.go": `// Package prng is a fixture stand-in for the simulator's PRNG.
package prng

// Source is a stub deterministic stream.
type Source struct{ s uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Source { return &Source{s: seed} }

// Mix folds seed parts into one well-spread seed.
//
//itslint:seedmixer
func Mix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
	}
	return h
}
`,
		"internal/smp/smp.go": `// Package smp is the fixture module's simulator root.
package smp

import _ "itsim/internal/chaos"
`,
		"internal/chaos/chaos.go": `// Package chaos is a deterministic-set fixture for the fix/budget drivers.
package chaos

import "itsim/internal/prng"

// Streams derives a per-lane stream with the collision-prone additive
// shape seedflow rewrites.
func Streams(seed uint64, lane int) *prng.Source {
	return prng.New(seed + uint64(lane))
}

// Legacy keeps a historical stream; its allow is what the budget counts.
func Legacy(seed uint64) *prng.Source {
	//itslint:allow historical stream kept for replay compatibility
	return prng.New(seed + 1)
}
`,
	}
	for name, content := range extra {
		files[name] = content
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runIn executes the built binary in dir, returning the exit code and the
// separate output streams.
func runIn(t *testing.T, dir, bin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("itslint %s: %v\n%s%s", strings.Join(args, " "), err, stderr.String(), stdout.String())
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// sarifDoc is the part of a SARIF 2.1.0 log the tests read.
type sarifDoc struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID string `json:"id"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine int `json:"startLine"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// TestSarifFixBudget is the driver round trip on the fixture module:
// `run -format sarif` emits a well-formed SARIF 2.1.0 log and exits
// nonzero, `fix` applies the prng.Mix rewrite and is idempotent, a clean
// re-run passes, and `-budget` enforces the committed suppression count.
func TestSarifFixBudget(t *testing.T) {
	bin := buildItslint(t)
	dir := writeFixtureModule(t, nil)
	chaosPath := filepath.Join(dir, "internal", "chaos", "chaos.go")

	// SARIF: the finding is present, located, and attributed to seedflow.
	code, stdout, stderr := runIn(t, dir, bin, "run", "-format", "sarif", "./...")
	if code != 1 {
		t.Fatalf("run -format sarif: want exit 1 with findings, got %d\n%s%s", code, stderr, stdout)
	}
	var log sarifDoc
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "itslint" {
		t.Fatalf("malformed SARIF envelope:\n%s", stdout)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != 5 {
		t.Errorf("rule table should list the whole five-analyzer suite, got %d rules", len(log.Runs[0].Tool.Driver.Rules))
	}
	found := false
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "seedflow" || !strings.Contains(r.Message.Text, `bare "+" arithmetic`) {
			continue
		}
		if len(r.Locations) != 1 {
			t.Fatalf("seedflow result missing location: %+v", r)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "internal/chaos/chaos.go" || loc.Region.StartLine == 0 {
			t.Errorf("seedflow result at wrong location: %+v", loc)
		}
		found = true
	}
	if !found {
		t.Fatalf("no seedflow bare-addition result in SARIF log:\n%s", stdout)
	}
	if !strings.Contains(stderr, "seedflow=1") {
		t.Errorf("suppression summary missing the allowed Legacy seed:\n%s", stderr)
	}

	// Fix: the additive seed is rewritten through prng.Mix; the suppressed
	// Legacy site is untouched.
	if code, stdout, stderr = runIn(t, dir, bin, "fix", "./..."); code != 0 {
		t.Fatalf("itslint fix: exit %d\n%s%s", code, stderr, stdout)
	}
	fixed, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "prng.New(prng.Mix(seed, uint64(lane)))") {
		t.Fatalf("fix did not rewrite the additive seed:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), "prng.New(seed + 1)") {
		t.Fatalf("fix touched the //itslint:allow-suppressed site:\n%s", fixed)
	}

	// Idempotence: a second fix run changes nothing.
	if code, stdout, stderr = runIn(t, dir, bin, "fix", "./..."); code != 0 {
		t.Fatalf("second itslint fix: exit %d\n%s%s", code, stderr, stdout)
	}
	again, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, again) {
		t.Fatalf("itslint fix is not idempotent:\n--- first\n%s\n--- second\n%s", fixed, again)
	}

	// The fixed tree is clean, and the budget gate passes exactly when the
	// committed allowance covers the remaining suppression.
	if code, stdout, stderr = runIn(t, dir, bin, "run", "./..."); code != 0 {
		t.Fatalf("run after fix: want clean exit, got %d\n%s%s", code, stderr, stdout)
	}
	budget := filepath.Join(dir, ".itslint-budget")
	if err := os.WriteFile(budget, []byte("seedflow 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr = runIn(t, dir, bin, "run", "-budget", budget, "./..."); code != 0 {
		t.Fatalf("run -budget with allowance: want exit 0, got %d\n%s%s", code, stderr, stdout)
	}
	if err := os.WriteFile(budget, []byte("# no allowances\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runIn(t, dir, bin, "run", "-budget", budget, "./...")
	if code == 0 || !strings.Contains(stderr, "exceed the committed budget") {
		t.Fatalf("run -budget without allowance: want budget violation, got exit %d\n%s", code, stderr)
	}
}

// chainFiles extend the fixture module with the lib/order → lib/wrap →
// chaos map-order laundering of internal/analysis/testdata and one
// //itslint:frozen struct.
var chainFiles = map[string]string{
	"internal/lib/order/order.go": `// Package order is a helper that no list names.
package order

// Keys returns m's keys in Go's per-run randomized map order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	"internal/lib/wrap/wrap.go": `// Package wrap forwards order.Keys across a second package boundary.
package wrap

import "itsim/internal/lib/order"

// FirstKey returns one of m's keys, chosen by map order.
func FirstKey(m map[string]int) string {
	ks := order.Keys(m)
	if len(ks) == 0 {
		return ""
	}
	return ks[0]
}
`,
	"internal/chaos/flow.go": `package chaos

import (
	"itsim/internal/lib/wrap"
	"itsim/internal/prng"
)

// Shuffled seeds a stream from map order laundered two packages away.
func Shuffled(m map[string]int) *prng.Source {
	return prng.New(uint64(len(wrap.FirstKey(m))))
}
`,
	"internal/metrics/metrics.go": `// Package metrics holds a frozen fixture summary.
package metrics

// Summary is a fixture run summary.
//
//itslint:frozen
type Summary struct {
	MakespanNs int64 ` + "`json:\"makespan_ns\"`" + `
}
`,
}

// TestFactsAndFreeze runs the built binary where only the production
// driver is in play: the derived set must follow the imports smp → chaos →
// lib/wrap → lib/order so that lib/order's map range is reported, `freeze`
// must write the module's frozen struct to its baseline and be a fixed
// point, and the real tree must come up clean with exactly its three
// committed suppressions.
func TestFactsAndFreeze(t *testing.T) {
	bin := buildItslint(t)
	dir := writeFixtureModule(t, chainFiles)

	code, stdout, stderr := runIn(t, dir, bin, "run", "-format", "sarif", "./...")
	if code != 1 {
		t.Fatalf("run: want exit 1 with findings, got %d\n%s%s", code, stderr, stdout)
	}
	var log sarifDoc
	if err := json.Unmarshal([]byte(stdout), &log); err != nil || len(log.Runs) != 1 {
		t.Fatalf("SARIF output does not parse (%v):\n%s", err, stdout)
	}
	reported := false
	for _, r := range log.Runs[0].Results {
		if r.RuleID == "entropyflow" &&
			r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "internal/lib/order/order.go" &&
			strings.Contains(r.Message.Text, "range over map map[string]int in deterministic package itsim/internal/lib/order") {
			reported = true
		}
	}
	if !reported {
		t.Errorf("run did not report the map range in internal/lib/order/order.go:\n%s", stdout)
	}

	if code, stdout, stderr = runIn(t, dir, bin, "freeze", "./..."); code != 0 {
		t.Fatalf("freeze: exit %d\n%s%s", code, stderr, stdout)
	}
	baseline := filepath.Join(dir, "internal", "analysis", "testdata", "frozen.json")
	first, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"itsim/internal/metrics.Summary": "MakespanNs int64 json:\"makespan_ns\""`; !strings.Contains(string(first), want) {
		t.Errorf("frozen.json lacks %s:\n%s", want, first)
	}
	if code, stdout, stderr = runIn(t, dir, bin, "freeze", "./..."); code != 0 {
		t.Fatalf("second freeze: exit %d\n%s%s", code, stderr, stdout)
	}
	if second, err := os.ReadFile(baseline); err != nil || !bytes.Equal(first, second) {
		t.Errorf("second freeze changed frozen.json (%v):\n--- first\n%s\n--- second\n%s", err, first, second)
	}

	code, _, stderr = runIn(t, repoRoot(t), bin, "run", "./...")
	if want := "itslint: 1 finding suppressed by //itslint:allow (entropyflow=1)\n"; code != 0 || stderr != want {
		t.Errorf("itslint run ./... on the repository: exit %d, stderr %q, want exit 0 and %q", code, stderr, want)
	}
}

// TestBrokenPackageExits2 checks that a package that does not type-check
// is a load error in every mode — exit 2 and no summary line — never a
// clean or findings verdict.
func TestBrokenPackageExits2(t *testing.T) {
	bin := buildItslint(t)
	dir := writeFixtureModule(t, map[string]string{
		"internal/sim/sim.go": "package sim\n\nfunc F() int { return \"x\" }\n",
	})
	for _, args := range [][]string{
		{"run", "./..."},
		{"run", "-format", "sarif", "./..."},
		{"fix", "./..."},
		{"freeze", "./..."},
	} {
		code, stdout, stderr := runIn(t, dir, bin, args...)
		if code != 2 || strings.Contains(stderr, "itslint:allow") {
			t.Errorf("itslint %s: exit %d, want 2 with no summary line\n%s%s", strings.Join(args, " "), code, stderr, stdout)
		}
		if !strings.Contains(stderr, "sim.go") {
			t.Errorf("itslint %s: the type error is not named:\n%s", strings.Join(args, " "), stderr)
		}
	}
}

// repoRoot walks up from the test's working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
