package entropyflow_test

import (
	"strings"
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/entropyflow"
)

// TestEntropyFlow checks both polarities on the helper-chain fixture: the
// map range in lib/order and the pointer→uintptr conversions in chaos are
// reported, and the sorted pass-through, the pointer reinterpretation and
// the justified allow are not.
func TestEntropyFlow(t *testing.T) {
	atest.Run(t, "../testdata", entropyflow.Analyzer,
		"itsim/internal/chaos", "itsim/internal/lib/order", "itsim/internal/lib/wrap")
}

// TestSourceBan checks both polarities of the source ban inside the
// deterministic set: wall clocks, global rand, env reads and map ranges are
// flagged even where no value reaches a sink; seeded draws and justified
// //itslint:allow suppressions are not, and a directive two lines away does
// not suppress. The workload fixture covers the arrival generators; the sim
// fixture covers the event core (a map-range or time.Now there must be
// flagged, the pure bucket-array walk must not).
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

// TestHelperChainBeyondSourceBan is why no flow check is needed: the map
// order chaos launders through the two-package order→wrap chain is
// reported at lib/order's range, because the derived set follows the
// imports smp → chaos → wrap → order even when only lib/order is named.
// chaos itself contains no map range, wall clock or global rand.
func TestHelperChainBeyondSourceBan(t *testing.T) {
	diags := atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/internal/lib/order").Diagnostics
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Posn.Filename, "order.go") ||
		!strings.HasPrefix(diags[0].Message, "range over map ") {
		t.Fatalf("want lib/order's map range reported once; diagnostics: %+v", diags)
	}
	for _, d := range atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/internal/chaos").Diagnostics {
		if strings.HasPrefix(d.Message, "call to ") || strings.HasPrefix(d.Message, "range over map ") {
			t.Errorf("source ban fired on the consumer package (the fixture must contain no direct source): %s", d.Message)
		}
	}
}
