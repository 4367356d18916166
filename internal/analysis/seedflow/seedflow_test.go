package seedflow_test

import (
	"strings"
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/seedflow"
)

// TestSeedFlow checks both polarities on the fault fixture: sanctioned
// shapes (pass-through, XOR/tweak-multiply chains, mixer calls) pass, the
// collision-prone shapes (raw literals, bare additive arithmetic — also
// through a conversion and through a forwarder's SeedArg fact — and reused
// seed expressions) are flagged.
func TestSeedFlow(t *testing.T) {
	atest.Run(t, "../testdata", seedflow.Analyzer, "itsim/internal/fault")
}

// TestSuggestedFix asserts the bare-addition diagnostic carries the
// mechanical wrap-in-prng.Mix rewrite `itslint fix` applies.
func TestSuggestedFix(t *testing.T) {
	diags := atest.RunResult(t, "../testdata", seedflow.Analyzer, "itsim/internal/fault").Diagnostics
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, `bare "+" arithmetic`) {
			continue
		}
		for _, fix := range d.SuggestedFixes {
			for _, edit := range fix.TextEdits {
				if strings.HasPrefix(string(edit.NewText), "prng.Mix(") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no bare-addition diagnostic carried a prng.Mix suggested fix: %+v", diags)
	}
}

// TestNonDeterministicPackageClean: the shape rules stop at the
// deterministic-set boundary — order/wrap construct nothing, but the prng
// fixture package itself (raw splitmix constants everywhere) must be clean.
func TestNonDeterministicPackageClean(t *testing.T) {
	diags := atest.RunResult(t, "../testdata", seedflow.Analyzer, "itsim/internal/prng").Diagnostics
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics outside the deterministic set: %+v", diags)
	}
}
