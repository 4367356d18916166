// Command itslint is the simulator's determinism lint suite: the five
// custom analyzers of internal/analysis — entropyflow, gospawn, vtime,
// seedflow and schemafreeze — that machine-check the invariants every
// figure in this repository rests on (same seed ⇒ byte-identical
// summaries; see docs/LINTS.md). They run in this process through
// internal/analysis/driver. Three modes, each over the named packages of
// the module in the working directory (default ./...):
//
//	itslint run [-format text|sarif] [-budget file] [packages...]
//
// reports the diagnostics, then prints the suppression summary — how many
// findings //itslint:allow directives absorbed, per analyzer. -format
// sarif emits the diagnostics as a SARIF 2.1.0 log on stdout; -budget
// fails the run when suppressions exceed the committed per-analyzer budget
// file. This is the mode CI and humans use.
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
// Exit status: 0 clean, 1 findings or budget exceeded, 2 usage or load
// error (a package that does not parse or type-check).
package main

import (
	"fmt"
	"os"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/driver"
	"itsim/internal/analysis/entropyflow"
	"itsim/internal/analysis/gospawn"
	"itsim/internal/analysis/schemafreeze"
	"itsim/internal/analysis/seedflow"
	"itsim/internal/analysis/vtime"
)

// analyzers is the suite, in docs/LINTS.md order. The slice feeds both the
// driver and the SARIF rule table.
var analyzers = []*analysis.Analyzer{
	entropyflow.Analyzer,
	gospawn.Analyzer,
	vtime.Analyzer,
	seedflow.Analyzer,
	schemafreeze.Analyzer,
}

func main() {
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
	fmt.Fprintln(os.Stderr, "usage: itslint run [-format text|sarif] [-budget file] [packages...]\n"+
		"       itslint fix [packages...]\n"+
		"       itslint freeze [packages...]")
	os.Exit(2)
}

// lint runs the analyzers over the named packages (default ./...) of the
// module in the working directory.
func lint(suite []*analysis.Analyzer, pkgs []string) (*driver.Result, error) {
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	return driver.Run(suite, pkgs...)
}
