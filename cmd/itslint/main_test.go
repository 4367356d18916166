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

// buildItslint compiles the multichecker once per test into a temp dir.
func buildItslint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the vet toolchain; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "itslint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRunMode builds the multichecker and drives `itslint run` over one
// real package end to end: the go vet -vettool handshake, the suppression
// side channel, and the aggregated summary line on stderr.
func TestRunMode(t *testing.T) {
	bin := buildItslint(t)

	// internal/sched carries exactly two justified //itslint:allow
	// directives (see docs/LINTS.md); the package must come up clean with
	// those suppressions counted.
	cmd := exec.Command(bin, "run", "./internal/sched")
	cmd.Dir = repoRoot(t)
	var stderr bytes.Buffer
	cmd.Stdout = &stderr
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("itslint run ./internal/sched: %v\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "suppressed by //itslint:allow") {
		t.Errorf("summary line missing from output:\n%s", out)
	}
	if !strings.Contains(out, "entropyflow=2") {
		t.Errorf("expected entropyflow=2 suppressions in summary, got:\n%s", out)
	}
}

// writeFixtureModule lays out a throwaway `module itsim` tree containing a
// deterministic-set package with one fixable seedflow violation and one
// //itslint:allow-suppressed violation, plus the prng package the suggested
// fix rewrites into.
func writeFixtureModule(t *testing.T) string {
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

// TestSarifFixBudget is the driver round trip on the fixture module:
// `run -format sarif` emits a well-formed SARIF 2.1.0 log and exits
// nonzero, `fix` applies the prng.Mix rewrite and is idempotent, a clean
// re-run passes, and `-budget` enforces the committed suppression count.
func TestSarifFixBudget(t *testing.T) {
	bin := buildItslint(t)
	dir := writeFixtureModule(t)
	chaosPath := filepath.Join(dir, "internal", "chaos", "chaos.go")

	// SARIF: the finding is present, located, and attributed to seedflow.
	code, stdout, stderr := runIn(t, dir, bin, "run", "-format", "sarif", "./...")
	if code != 1 {
		t.Fatalf("run -format sarif: want exit 1 with findings, got %d\n%s%s", code, stderr, stdout)
	}
	var log struct {
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
