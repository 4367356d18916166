// Command itslint is the simulator's determinism lint suite: a go vet
// -vettool multichecker bundling the five custom analyzers of
// internal/analysis — entropyflow, gospawn, vtime, seedflow and
// schemafreeze — that machine-check the invariants every figure in this
// repository rests on (same seed ⇒ byte-identical summaries; see
// docs/LINTS.md).
//
// Four modes:
//
//	itslint run [-format text|sarif] [-budget file] [packages...]
//
// builds nothing and drives `go vet -vettool=<itself>` over the packages
// (default ./...), then prints the suppression summary — how many findings
// //itslint:allow directives absorbed, per analyzer. -format sarif emits
// the diagnostics as a SARIF 2.1.0 log on stdout; -budget fails the run
// when suppressions exceed the committed per-analyzer budget file. This is
// the mode CI and humans use.
//
//	itslint fix [packages...]
//
// applies every machine-safe SuggestedFix the analyzers attach (today:
// seedflow's wrap-in-prng.Mix rewrite) to the working tree. Idempotent —
// once rewritten, the diagnostics and so the fixes are gone.
//
//	itslint freeze [packages...]
//
// regenerates the //itslint:frozen struct-layout baseline at
// internal/analysis/testdata/frozen.json; commit the result.
//
// Any other invocation follows the x/tools unitchecker protocol, i.e. what
// the go vet driver calls with a .cfg file per package:
//
//	go vet -vettool=$(command -v itslint) ./...
package main

import (
	"os"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"itsim/internal/analysis/entropyflow"
	"itsim/internal/analysis/gospawn"
	"itsim/internal/analysis/schemafreeze"
	"itsim/internal/analysis/seedflow"
	"itsim/internal/analysis/vtime"
)

// analyzers is the suite, in docs/LINTS.md order. The slice feeds both the
// unitchecker registration and the SARIF rule table.
var analyzers = []*analysis.Analyzer{
	entropyflow.Analyzer,
	gospawn.Analyzer,
	vtime.Analyzer,
	seedflow.Analyzer,
	schemafreeze.Analyzer,
}

func main() {
	// nonce is a no-op flag the run/fix/freeze drivers set to a fresh value
	// on every invocation. go vet folds analyzer flags into its result-cache
	// key, so a fresh nonce forces every package to be re-analyzed — the
	// suppression summary and the freeze capture are append-only side
	// channels the cache knows nothing about, and a cache hit would silently
	// drop that package's records.
	entropyflow.Analyzer.Flags.String("nonce", "",
		"no-op value; drivers pass a fresh one to defeat go vet's result cache")

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runMode(os.Args[2:]))
		case "fix":
			os.Exit(fixMode(os.Args[2:]))
		case "freeze":
			os.Exit(freezeMode(os.Args[2:]))
		}
	}
	unitchecker.Main(analyzers...)
}
