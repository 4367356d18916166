package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// fixMode runs the analyzers and applies their SuggestedFixes to the
// working tree as byte-offset splices. Idempotent: once a site is
// rewritten its diagnostic is gone, so a second run is a no-op. Overlapping
// edits are applied first-wins; the skipped ones are reported so a re-run
// can pick them up against the new offsets.
func fixMode(args []string) int {
	fs := flag.NewFlagSet("itslint fix", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := lint(analyzers, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "itslint:", err)
		return 2
	}

	perFile := make(map[string][]edit)
	for _, d := range res.Diagnostics {
		for _, f := range d.SuggestedFixes {
			for _, e := range f.TextEdits {
				start := res.Fset.Position(e.Pos)
				perFile[start.Filename] = append(perFile[start.Filename],
					edit{Start: start.Offset, End: res.Fset.Position(e.End).Offset, New: string(e.NewText)})
			}
		}
	}
	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)

	applied, skipped, changed := 0, 0, 0
	for _, file := range files {
		n, s, err := applyEdits(file, perFile[file])
		if err != nil {
			fmt.Fprintf(os.Stderr, "itslint fix: %s: %v\n", file, err)
			return 2
		}
		applied += n
		skipped += s
		if n > 0 {
			changed++
		}
	}
	fmt.Fprintf(os.Stderr, "itslint fix: applied %d edits in %d files\n", applied, changed)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "itslint fix: skipped %d overlapping or out-of-range edits; re-run to apply\n", skipped)
	}
	return 0
}

// edit is a byte-offset splice within one file: [Start, End) replaced by
// New.
type edit struct {
	Start, End int
	New        string
}

// applyEdits splices the edits into file, back to front so earlier byte
// offsets stay valid, keeping the original permission bits.
func applyEdits(file string, edits []edit) (applied, skipped int, err error) {
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Start != edits[j].Start {
			return edits[i].Start < edits[j].Start
		}
		return edits[i].End < edits[j].End
	})
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, 0, err
	}
	mode := fs.FileMode(0o644)
	if info, err := os.Stat(file); err == nil {
		mode = info.Mode().Perm()
	}

	// First-wins overlap resolution on the ascending order...
	var kept []edit
	lastEnd := -1
	for _, e := range edits {
		if e.Start < lastEnd || e.Start < 0 || e.End < e.Start || e.End > len(data) {
			skipped++
			continue
		}
		kept = append(kept, e)
		lastEnd = e.End
	}
	// ...then splice descending.
	for i := len(kept) - 1; i >= 0; i-- {
		e := kept[i]
		data = append(data[:e.Start:e.Start], append([]byte(e.New), data[e.End:]...)...)
		applied++
	}
	if applied == 0 {
		return 0, skipped, nil
	}
	return applied, skipped, os.WriteFile(file, data, mode)
}
