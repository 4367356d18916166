package entropyflow_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/entropyflow"
)

// TestEntropyFlow checks both polarities on the fixture tree: the chaos
// consumer package (deterministic set) must flag every laundered-entropy
// sink and nothing else, and the helper packages outside the set must stay
// diagnostic-free even though they contain the map ranges.
func TestEntropyFlow(t *testing.T) {
	atest.Run(t, "../testdata", entropyflow.Analyzer,
		"itsim/internal/chaos", "itsim/internal/lib/order", "itsim/internal/lib/wrap")
}

// TestSourceBan checks both polarities of the source ban inside the
// deterministic set: wall clocks, global rand, env reads and map ranges are
// flagged even where no value reaches a sink; seeded draws and justified
// //itslint:allow suppressions are not, and a directive two lines away does
// not suppress. The workload fixture covers the arrival-generator package
// that joined the set with the fleet model; the sim fixture covers the
// event core that joined with the calendar queue (a map-range or time.Now
// there must be flagged, the pure bucket-array walk must not).
func TestSourceBan(t *testing.T) {
	atest.Run(t, "../testdata", entropyflow.Analyzer,
		"itsim/internal/kernel", "itsim/internal/workload", "itsim/internal/sim")
}

// TestNonDeterministicPackage checks that outside the deterministic set the
// banned patterns pass freely, while directive hygiene (the empty-reason
// check) is still enforced everywhere. Asserted programmatically because
// the empty-reason diagnostic lands on the directive's own line, which
// cannot also carry a // want comment.
func TestNonDeterministicPackage(t *testing.T) {
	diags := atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/cmd/clitool").Diagnostics
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the empty-reason report: %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "without a reason") {
		t.Errorf("unexpected diagnostic: %s", diags[0].Message)
	}
}

// TestHelperChainBeyondSourceBan is the reason the flow check exists next
// to the source ban: the map-range leak hidden behind the two-package
// order→wrap helper chain is caught at its sink, while the consumer package
// itself contains no direct source for the ban to report.
func TestHelperChainBeyondSourceBan(t *testing.T) {
	ed := atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/internal/chaos").Diagnostics
	found := false
	for _, d := range ed {
		if strings.Contains(d.Message, "via itsim/internal/lib/order.Keys") &&
			strings.Contains(d.Message, "event-queue insertion key") {
			found = true
		}
		if strings.HasPrefix(d.Message, "call to ") || strings.HasPrefix(d.Message, "range over map ") {
			t.Errorf("source ban fired on the consumer package (the fixture must contain no direct source): %s", d.Message)
		}
	}
	if !found {
		t.Fatalf("entropyflow did not catch the two-package helper-chain leak; diagnostics: %+v", ed)
	}
}

// TestFactRoundTrip proves each fact type survives gob, as the go/analysis
// Fact contract requires of every fact (the in-process driver copies facts
// without serializing them, so this test is what keeps the contract).
func TestFactRoundTrip(t *testing.T) {
	facts := []any{
		&entropyflow.ReturnsEntropy{Why: "map iteration order (via p.F)"},
		&entropyflow.ParamEscapesToSink{Params: []int{0, 2}, Sink: "PRNG seed; obs event field"},
		&entropyflow.SeedsRNG{Params: []int{1}},
	}
	for _, f := range facts {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatalf("encoding %T: %v", f, err)
		}
		out := reflect.New(reflect.TypeOf(f).Elem()).Interface()
		if err := gob.NewDecoder(&buf).Decode(out); err != nil {
			t.Fatalf("decoding %T: %v", f, err)
		}
		if !reflect.DeepEqual(f, out) {
			t.Errorf("%T round-trip mismatch: sent %+v, got %+v", f, f, out)
		}
	}
}
