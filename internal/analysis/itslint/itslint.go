// Package itslint holds the shared machinery of the simulator's custom
// go/analysis passes: the rule that derives the deterministic package set
// every analyzer scopes itself to, the //itslint:allow suppression
// directive, and the suppression summary and budget `itslint run` prints
// and enforces.
//
// Every result this repository reports rests on bit-exact determinism: the
// same seed must produce byte-identical summaries across repeats and under
// any fault schedule. The analyzers in internal/analysis/... machine-check
// the coding discipline that property depends on; this package keeps their
// shared conventions in one place.
package itslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// SimulatorRoots are the packages every simulated run enters through: the
// machine (smp), the fleet (cluster) and trace replay (replay). The
// deterministic set is their in-module import closure, which the driver
// derives from the import graph on every run. A package the simulator can
// call is therefore checked from the moment it is imported, and no helper
// outside the set can hand entropy to code inside it.
var SimulatorRoots = []string{"itsim/internal/smp", "itsim/internal/cluster", "itsim/internal/replay"}

// DeterministicFact is the package fact the driver answers for every
// package of the deterministic set. Analyzers read it through
// Deterministic.
type DeterministicFact struct{}

func (*DeterministicFact) AFact() {}

// Deterministic reports whether the pass's package belongs to the
// deterministic set, where one stray wall-clock read, global-rand draw,
// env-dependent branch or map-order iteration can silently break replay,
// `itsbench diff` and the per-core conservation ledger.
func Deterministic(pass *analysis.Pass) bool {
	return pass.ImportPackageFact(pass.Pkg, new(DeterministicFact))
}

// CalleeFunc resolves the function or method a call names, or nil for
// indirect calls, builtins and conversions.
func CalleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// IsTestFile reports whether the node's file is a _test.go file. The
// determinism invariants bind the simulator, not its tests — tests iterate
// maps and read wall clocks freely — so every analyzer skips test files.
func IsTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// prefix is the directive that suppresses an itslint diagnostic.
const prefix = "//itslint:allow"

// mixerPrefix marks a function as a documented seed mixer: seedflow
// accepts its calls as sanctioned seed derivations (see docs/LINTS.md,
// "seedflow").
const mixerPrefix = "//itslint:seedmixer"

// FrozenPrefix marks an exported struct whose serialized layout is frozen
// against the committed schemafreeze baseline.
const FrozenPrefix = "//itslint:frozen"

// IsSeedMixer reports whether the function declaration carries the
// //itslint:seedmixer directive in its doc comment.
func IsSeedMixer(fd *ast.FuncDecl) bool {
	return hasDirective(fd.Doc, mixerPrefix)
}

// IsFrozen reports whether the struct's type declaration carries the
// //itslint:frozen directive in doc (on the TypeSpec or its GenDecl).
func IsFrozen(docs ...*ast.CommentGroup) bool {
	for _, d := range docs {
		if hasDirective(d, FrozenPrefix) {
			return true
		}
	}
	return false
}

// hasDirective reports whether the comment group contains a line that is
// the directive, optionally followed by free text.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == directive {
			return true
		}
		if strings.HasPrefix(c.Text, directive) {
			rest := c.Text[len(directive):]
			if strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t") {
				return true
			}
		}
	}
	return false
}

// Suppressed is the Category of a diagnostic that a justified
// //itslint:allow directive absorbed. The driver counts such diagnostics
// toward the suppression summary instead of reporting them.
const Suppressed = "itslint:suppressed"

// Directive is one parsed //itslint:allow comment.
type Directive struct {
	Pos    token.Pos
	Line   int
	Reason string
}

// Allows indexes the //itslint:allow directives of one package and arbitrates
// whether a diagnostic at a given position is suppressed. A directive covers
// its own source line and the line immediately below it (so it can trail the
// flagged statement or sit on its own line above it); anywhere else it does
// not suppress.
type Allows struct {
	pass *analysis.Pass
	// dirs maps filename → line → directive.
	dirs map[string]map[int]*Directive
}

// Scan indexes the allow directives of every non-test file in the package.
func Scan(pass *analysis.Pass) *Allows {
	al := &Allows{pass: pass, dirs: make(map[string]map[int]*Directive)}
	for _, d := range Directives(pass) {
		p := pass.Fset.Position(d.Pos)
		m := al.dirs[p.Filename]
		if m == nil {
			m = make(map[int]*Directive)
			al.dirs[p.Filename] = m
		}
		m[d.Line] = d
	}
	return al
}

// Directives returns every //itslint:allow directive in the package's
// non-test files, in file order.
func Directives(pass *analysis.Pass) []*Directive {
	var out []*Directive
	for _, f := range pass.Files {
		if IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := c.Text[len(prefix):]
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //itslint:allowance — not our directive
				}
				out = append(out, &Directive{
					Pos:    c.Pos(),
					Line:   pass.Fset.Position(c.Pos()).Line,
					Reason: strings.TrimSpace(rest),
				})
			}
		}
	}
	return out
}

// allowed returns the directive covering pos, if any. Only directives with a
// non-empty reason suppress; empty-reason directives are themselves reported
// by CheckDirectives.
func (al *Allows) allowed(pos token.Pos) *Directive {
	p := al.pass.Fset.Position(pos)
	m := al.dirs[p.Filename]
	if m == nil {
		return nil
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if d := m[line]; d != nil && d.Reason != "" {
			return d
		}
	}
	return nil
}

// Report files the diagnostic, marked Suppressed when a justified
// //itslint:allow directive covers pos.
func (al *Allows) Report(pos token.Pos, format string, args ...any) {
	al.ReportFix(pos, token.NoPos, nil, format, args...)
}

// ReportFix is Report with attached SuggestedFixes, for diagnostics that
// `itslint fix` can apply mechanically. A suppressed diagnostic carries no
// fixes.
func (al *Allows) ReportFix(pos token.Pos, end token.Pos, fixes []analysis.SuggestedFix, format string, args ...any) {
	d := analysis.Diagnostic{Pos: pos, End: end, Message: fmt.Sprintf(format, args...), SuggestedFixes: fixes}
	if al.allowed(pos) != nil {
		d.Category, d.SuggestedFixes = Suppressed, nil
	}
	al.pass.Report(d)
}

// FormatSummary renders the aggregated suppression counts as the one-line
// `itslint run` summary, e.g.
//
//	itslint: 3 findings suppressed by //itslint:allow (entropyflow=2, gospawn=1)
func FormatSummary(perAnalyzer map[string]int, total int) string {
	if total == 0 {
		return "itslint: clean, no //itslint:allow suppressions"
	}
	names := make([]string, 0, len(perAnalyzer))
	for name := range perAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, perAnalyzer[name]))
	}
	noun := "findings"
	if total == 1 {
		noun = "finding"
	}
	return fmt.Sprintf("itslint: %d %s suppressed by //itslint:allow (%s)",
		total, noun, strings.Join(parts, ", "))
}

// ParseBudget parses a suppression-budget file: one `analyzer count` pair
// per line, '#' comments and blank lines ignored. The budget is the
// ceiling on //itslint:allow suppressions per analyzer — suppressions can
// be spent down (count below budget) but never silently grow.
func ParseBudget(data []byte) (map[string]int, error) {
	budget := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("budget line %d: want `analyzer count`, got %q", i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("budget line %d: bad count %q", i+1, fields[1])
		}
		budget[fields[0]] = n
	}
	return budget, nil
}

// CheckBudget compares observed per-analyzer suppression counts against
// the budget and returns one violation line per analyzer over its ceiling
// (an analyzer absent from the budget file has a ceiling of zero), sorted.
func CheckBudget(perAnalyzer, budget map[string]int) []string {
	var violations []string
	for name, n := range perAnalyzer {
		if max := budget[name]; n > max {
			violations = append(violations, fmt.Sprintf(
				"%s: %d suppressions exceed the committed budget of %d (spend suppressions down, never grow them; "+
					"if a new //itslint:allow is genuinely justified, raise the budget file in the same reviewed change)",
				name, n, max))
		}
	}
	sort.Strings(violations)
	return violations
}

// CheckDirectives reports every //itslint:allow directive with an empty
// reason: a suppression without a justification is itself a violation.
// Exactly one analyzer (entropyflow, which runs on every package) calls
// this, so each bad directive is reported once.
func CheckDirectives(pass *analysis.Pass) {
	for _, d := range Directives(pass) {
		if d.Reason == "" {
			pass.Report(analysis.Diagnostic{
				Pos:     d.Pos,
				Message: "itslint:allow directive without a reason: justify the suppression (//itslint:allow <why this is deterministic>)",
			})
		}
	}
}
