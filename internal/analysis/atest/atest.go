// Package atest is the fixture checker for the itslint analyzers, in the
// style of golang.org/x/tools/go/analysis/analysistest (which this
// repository does not vendor). Fixtures live in a GOPATH-style tree
// (dir/src/<import/path>/*.go) and run through the production driver, so
// cross-package facts flow exactly as in `itslint run`. Expected
// diagnostics are written as trailing comments of the form
//
//	broken()            // want "regexp" "another regexp"
//
// Every expectation must be matched by a diagnostic reported on the same
// line, and every diagnostic must match an expectation, else the test fails.
package atest

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/driver"
)

// Run runs a over the fixture packages and checks its diagnostics against
// the // want expectations in their files. Dependencies loaded from the
// tree contribute facts but are not checked.
func Run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	check(t, a.Name, RunResult(t, dir, a, paths...))
}

// RunResult runs a over the fixture packages and returns the driver's
// result, for tests that assert on suppression counts, fact flow,
// suggested fixes or captured layouts rather than // want lines.
func RunResult(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) *driver.Result {
	t.Helper()
	res, err := driver.RunGOPATH(dir, []*analysis.Analyzer{a}, paths...)
	if err != nil {
		t.Fatalf("%s: loading fixtures %v: %v", a.Name, paths, err)
	}
	return res
}

// expectation is one // want regexp at a file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// check compares diagnostics against the // want comments of the fixtures.
func check(t *testing.T, name string, res *driver.Result) {
	t.Helper()
	var wants []*expectation
	for _, f := range res.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := res.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(text[i+len("// want "):]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: %s:%d: bad want regexp %q: %v", name, pos.Filename, pos.Line, raw, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	for _, d := range res.Diagnostics {
		pos := d.Posn
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: %s:%d: unexpected diagnostic: %s", name, pos.Filename, pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", name, w.file, w.line, w.raw)
		}
	}
}

// splitQuoted parses the space-separated quoted regexps of a want comment:
// "..." (interpreted) or `...` (raw) strings.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return out
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, unq)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				return out
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}
