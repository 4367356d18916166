// Package itslint holds the shared machinery of the simulator's custom
// go/analysis passes: the deterministic-package set every analyzer scopes
// itself to, the //itslint:allow suppression directive, and the suppression
// accounting the `itslint run` multichecker aggregates into its summary.
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
	"os"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// deterministicPkgs is the set of import paths whose code must be bit-exact
// reproducible: one stray wall-clock read, global-rand draw, env-dependent
// branch or map-order iteration in any of them can silently break replay,
// `itsbench diff`, and the per-core conservation ledger.
var deterministicPkgs = map[string]bool{
	// The event core joined the set with the calendar queue: its bucket
	// walk and free lists are pure slice code today, and a map-range or
	// wall-clock read slipping in would scramble same-time event order —
	// the exact invariant every equivalence suite anchors on.
	"itsim/internal/sim":      true,
	"itsim/internal/exec":     true,
	"itsim/internal/smp":      true,
	"itsim/internal/kernel":   true,
	"itsim/internal/storage":  true,
	"itsim/internal/fault":    true,
	"itsim/internal/policy":   true,
	"itsim/internal/sched":    true,
	"itsim/internal/cache":    true,
	"itsim/internal/preexec":  true,
	"itsim/internal/prefetch": true,
	"itsim/internal/obs":      true,
	"itsim/internal/metrics":  true,
	"itsim/internal/replay":   true,
	"itsim/internal/workload": true,
	"itsim/internal/cluster":  true,
	// Chaos schedules are replayed byte-for-byte by the CI chaos-
	// determinism job: any nondeterminism here reshuffles machine
	// failures across identically-seeded runs.
	"itsim/internal/chaos": true,
}

// Deterministic reports whether the import path belongs to the simulator's
// deterministic core.
func Deterministic(path string) bool { return deterministicPkgs[path] }

// IsTestFile reports whether the node's file is a _test.go file. The
// determinism invariants bind the simulator, not its tests — tests iterate
// maps and read wall clocks freely — so every analyzer skips test files.
func IsTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// EntropySources maps package path → function name → the nondeterminism
// class a call introduces. entropyflow uses it twice: its source ban
// reports the calls outright in the deterministic set, and its flow check
// treats their results as taint everywhere, so a wall-clock read or
// global-rand draw laundered through a helper package is still caught when
// it reaches sim-visible state.
var EntropySources = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"math/rand": {
		"Int": "global math/rand source", "Intn": "global math/rand source",
		"Int31": "global math/rand source", "Int31n": "global math/rand source",
		"Int63": "global math/rand source", "Int63n": "global math/rand source",
		"Uint32": "global math/rand source", "Uint64": "global math/rand source",
		"Float32": "global math/rand source", "Float64": "global math/rand source",
		"ExpFloat64": "global math/rand source", "NormFloat64": "global math/rand source",
		"Perm": "global math/rand source", "Shuffle": "global math/rand source",
		"Seed": "global math/rand source", "Read": "global math/rand source",
	},
	"math/rand/v2": {
		"Int": "global math/rand/v2 source", "IntN": "global math/rand/v2 source",
		"Int32": "global math/rand/v2 source", "Int32N": "global math/rand/v2 source",
		"Int64": "global math/rand/v2 source", "Int64N": "global math/rand/v2 source",
		"Uint32": "global math/rand/v2 source", "Uint32N": "global math/rand/v2 source",
		"Uint64": "global math/rand/v2 source", "Uint64N": "global math/rand/v2 source",
		"N": "global math/rand/v2 source", "Float32": "global math/rand/v2 source",
		"Float64": "global math/rand/v2 source", "Perm": "global math/rand/v2 source",
		"Shuffle": "global math/rand/v2 source", "ExpFloat64": "global math/rand/v2 source",
		"NormFloat64": "global math/rand/v2 source",
	},
	"os": {
		"Getenv":    "environment-dependent behaviour",
		"LookupEnv": "environment-dependent behaviour",
		"Environ":   "environment-dependent behaviour",
		"ExpandEnv": "environment-dependent behaviour",
	},
}

// EntropySource reports whether fn is one of the banned nondeterminism
// introducers, and the class it belongs to.
func EntropySource(fn *types.Func) (why string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, sok := fn.Type().(*types.Signature); !sok || sig.Recv() != nil {
		return "", false // method call (e.g. a seeded *rand.Rand) — deterministic
	}
	why, ok = EntropySources[fn.Pkg().Path()][fn.Name()]
	return why, ok
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

// SummaryEnv, when set, names a file each analyzer appends its suppression
// counts to; `itslint run` aggregates it into the multichecker summary.
const SummaryEnv = "ITSLINT_SUMMARY"

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
	// Suppressed counts diagnostics a non-empty-reason directive absorbed.
	Suppressed int
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

// Sanctioned reports whether a justified allow directive covers pos,
// WITHOUT counting a suppression. entropyflow's flow check uses it to
// sanitize taint at source sites its source ban already arbitrates, so one
// directive is counted once.
func (al *Allows) Sanctioned(pos token.Pos) bool { return al.allowed(pos) != nil }

// Report files the diagnostic unless a justified //itslint:allow directive
// covers pos, in which case the suppression is counted instead.
func (al *Allows) Report(pos token.Pos, format string, args ...any) {
	if al.allowed(pos) != nil {
		al.Suppressed++
		return
	}
	al.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportFix is Report with attached SuggestedFixes, for diagnostics that
// `itslint fix` can apply mechanically.
func (al *Allows) ReportFix(pos token.Pos, end token.Pos, fixes []analysis.SuggestedFix, format string, args ...any) {
	if al.allowed(pos) != nil {
		al.Suppressed++
		return
	}
	al.pass.Report(analysis.Diagnostic{
		Pos: pos, End: end,
		Message:        fmt.Sprintf(format, args...),
		SuggestedFixes: fixes,
	})
}

// Flush appends this pass's suppression count to the $ITSLINT_SUMMARY file
// (best-effort; the environment variable unset means no accounting was
// requested). Call once at the end of the analyzer's Run.
func (al *Allows) Flush(analyzer string) {
	if al.Suppressed == 0 {
		return
	}
	AppendSummary(analyzer, al.pass.Pkg.Path(), al.Suppressed)
}

// AppendSummary records n suppressions for analyzer on pkg in the summary
// file named by $ITSLINT_SUMMARY. Each vet worker process appends a single
// line, so concurrent packages interleave whole records.
func AppendSummary(analyzer, pkg string, n int) {
	path := os.Getenv(SummaryEnv)
	if path == "" || n == 0 {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintf(f, "%s\t%s\t%d\n", analyzer, pkg, n)
	f.Close()
}

// ParseSummary aggregates the summary file's records into per-analyzer
// totals and a grand total. Malformed lines are ignored (a crashed worker
// may truncate its record). go vet can analyze one package more than once
// — a fact-producing analyzer also runs in the facts-only pass vet makes
// over every dependency — and each visit appends a record, so repeated
// (analyzer, package) records count once, at their largest value.
func ParseSummary(data []byte) (perAnalyzer map[string]int, total int) {
	perPkg := make(map[[2]string]int)
	for _, line := range strings.Split(string(data), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			continue
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n <= 0 {
			continue
		}
		key := [2]string{parts[0], parts[1]}
		perPkg[key] = max(perPkg[key], n)
	}
	perAnalyzer = make(map[string]int)
	for key, n := range perPkg {
		perAnalyzer[key[0]] += n
		total += n
	}
	return perAnalyzer, total
}

// FormatSummary renders the aggregated suppression counts as the one-line
// multichecker summary, e.g.
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
