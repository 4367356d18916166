package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/schemafreeze"
)

// freezeMode regenerates the frozen-schema baseline: it runs schemafreeze
// over the packages and writes their captured layouts, formatted
// deterministically, to internal/analysis/testdata/frozen.json under the
// module root. Drift findings do not block a freeze; a package that does
// not load does.
func freezeMode(args []string) int {
	fs := flag.NewFlagSet("itslint freeze", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := lint([]*analysis.Analyzer{schemafreeze.Analyzer}, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}
	path := filepath.Join(root, filepath.FromSlash(schemafreeze.BaselineRel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}
	if err := os.WriteFile(path, schemafreeze.FormatBaseline(res.Frozen), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "itslint freeze: %d frozen structs -> %s\n", len(res.Frozen), path)
	return 0
}

// moduleRoot locates the enclosing module via `go env GOMOD`.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}
