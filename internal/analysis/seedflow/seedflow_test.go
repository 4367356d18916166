package seedflow_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
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
// deterministic-set boundary — cmd/clitool is outside it, so its literal
// seed is not reported.
func TestNonDeterministicPackageClean(t *testing.T) {
	diags := atest.RunResult(t, "../testdata", seedflow.Analyzer, "itsim/cmd/clitool").Diagnostics
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics outside the deterministic set: %+v", diags)
	}
}

// TestFactRoundTrip proves SeedArg survives gob, as the go/analysis Fact
// contract requires of every fact (the in-process driver copies facts
// without serializing them, so this test is what keeps the contract).
func TestFactRoundTrip(t *testing.T) {
	sent := &seedflow.SeedArg{Params: []int{0, 2}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sent); err != nil {
		t.Fatalf("encoding: %v", err)
	}
	got := new(seedflow.SeedArg)
	if err := gob.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if !reflect.DeepEqual(sent, got) {
		t.Errorf("round-trip mismatch: sent %+v, got %+v", sent, got)
	}
}
