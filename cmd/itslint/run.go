package main

import (
	"flag"
	"fmt"
	"os"

	"itsim/internal/analysis/itslint"
)

// runMode reports the suite's diagnostics and the one-line suppression
// summary. -format sarif writes the diagnostics as a SARIF 2.1.0 log on
// stdout; -budget fails the run when suppressions exceed the committed
// per-analyzer allowance.
func runMode(args []string) int {
	fs := flag.NewFlagSet("itslint run", flag.ContinueOnError)
	format := fs.String("format", "text", `diagnostic format: "text" or "sarif"`)
	budgetPath := fs.String("budget", "", "enforce the named //itslint:allow budget file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "itslint: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}
	var budget map[string]int
	if *budgetPath != "" {
		data, err := os.ReadFile(*budgetPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itslint:", err)
			return 2
		}
		if budget, err = itslint.ParseBudget(data); err != nil {
			fmt.Fprintf(os.Stderr, "itslint: %s: %v\n", *budgetPath, err)
			return 2
		}
	}
	res, err := lint(analyzers, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}

	if *format == "sarif" {
		os.Stdout.Write(sarifLog(res.Diagnostics))
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", relPath(d.Posn.Filename), d.Posn.Line, d.Posn.Column, d.Message)
		}
	}
	rc := 0
	if len(res.Diagnostics) > 0 {
		rc = 1
	}
	perAnalyzer, total := res.PerAnalyzer()
	fmt.Fprintln(os.Stderr, itslint.FormatSummary(perAnalyzer, total))
	if budget != nil {
		for _, v := range itslint.CheckBudget(perAnalyzer, budget) {
			fmt.Fprintln(os.Stderr, "itslint budget:", v)
			rc = 1
		}
	}
	return rc
}
