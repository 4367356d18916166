// Package seedflow encodes the seed-tree discipline of the fleet layers as
// law: every PRNG constructed inside the deterministic package set must
// derive its seed through a sanctioned shape, so per-axis streams
// decorrelate instead of colliding.
//
// Sanctioned seed shapes (the grammar PRs 7 and 9 converged on):
//
//   - a named value passed through unchanged (prng.New(cfg.Seed) — the
//     constructor splitmix64-expands internally),
//   - an XOR chain of named values, tweak constants and tweak multiplies
//     (cfg.Seed ^ tailTweak ^ uint64(id+1)*machineTweak),
//   - a call to a documented mixer — a function whose doc comment carries
//     //itslint:seedmixer (prng.Mix and the per-layer helpers built on it).
//
// Diagnostics, each with a SuggestedFix where the rewrite is mechanical:
//
//   - a raw literal as the whole seed (prng.New(42)): streams built from
//     nearby literals are correlated through the additive splitmix64 walk;
//   - bare additive/bitwise arithmetic at the top level of the seed
//     (prng.New(seed+uint64(id))): id+seed shapes collide across axes
//     (machine 3 axis A == machine 4 axis B) — the historical bug class the
//     golden-ratio tweak multiply exists to prevent;
//   - an identical seed expression reused for a second stream in the same
//     function: the axes draw the same sequence.
//
// Seed-forwarding helpers (func newStream(rate, seed) { prng.New(seed) })
// are followed through a SeedArg fact, so the shape check lands on the
// caller's argument, across packages. SeedArg is the suite's only fact
// type, which is why the driver runs seedflow on every dependency of the
// named packages. Functions annotated //itslint:seedmixer are exempt inside
// (a mixer's body is raw arithmetic by design); their fact still exports.
package seedflow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the seedflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "require PRNG seeds in the deterministic packages to derive through sanctioned " +
		"shapes (named values, XOR/tweak-multiply chains, //itslint:seedmixer helpers)",
	Run:       run,
	FactTypes: []analysis.Fact{(*SeedArg)(nil)},
}

// SeedArg marks a function that forwards one or more of its parameters
// directly into a PRNG constructor's seed (or another forwarder), so the
// seed-shape check applies to its call sites.
type SeedArg struct {
	Params []int // zero-based parameter indices, sorted
}

func (*SeedArg) AFact()           {}
func (f *SeedArg) String() string { return fmt.Sprintf("SeedArg(%v)", f.Params) }

// prngPath is the import path of the deterministic PRNG whose Mix helper
// the suggested fixes reference.
const prngPath = "itsim/internal/prng"

func run(pass *analysis.Pass) (any, error) {
	al := itslint.Scan(pass)
	det := itslint.Deterministic(pass)

	var funcs []*ast.FuncDecl
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
	}
	// Fact fixpoint: a forwarder that feeds another forwarder in the same
	// package needs a second round to surface.
	for iter := 0; iter <= len(funcs)+1; iter++ {
		changed := false
		for _, fd := range funcs {
			if analyzeFunc(pass, al, fd, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if det {
		for _, fd := range funcs {
			analyzeFunc(pass, al, fd, true)
		}
	}
	return nil, nil
}

// analyzeFunc scans one function for PRNG constructions and forwarder
// calls; with report set it emits diagnostics, otherwise it only grows the
// function's SeedArg fact. Returns whether the fact changed.
func analyzeFunc(pass *analysis.Pass, al *itslint.Allows, fd *ast.FuncDecl, report bool) bool {
	fnObj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	if itslint.IsSeedMixer(fd) {
		return false // a mixer's body is sanctioned arithmetic by decree
	}
	params := make(map[types.Object]int)
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	forwarded := make(map[int]bool)
	seen := make(map[string]bool) // normalized seed exprs, for reuse detection
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		for _, argIdx := range seedArgs(pass, fn) {
			if argIdx >= len(call.Args) {
				continue
			}
			seed := call.Args[argIdx]
			// Forwarder fact: a parameter passed through unchanged.
			if id, isIdent := ast.Unparen(seed).(*ast.Ident); isIdent {
				if p, isParam := params[pass.TypesInfo.Uses[id]]; isParam {
					forwarded[p] = true
				}
			}
			if report {
				checkSeedShape(pass, al, fn, seed)
				checkReuse(pass, al, seen, seed)
			}
		}
		return true
	})

	if len(forwarded) == 0 {
		return false
	}
	set := make(map[int]bool)
	var prev SeedArg
	had := pass.ImportObjectFact(fnObj, &prev)
	for _, p := range prev.Params {
		set[p] = true
	}
	for p := range forwarded {
		set[p] = true
	}
	fact := &SeedArg{Params: sortedKeys(set)}
	if had && equalInts(prev.Params, fact.Params) {
		return false
	}
	pass.ExportObjectFact(fnObj, fact)
	return true
}

// seedArgs returns the argument indices of fn that are PRNG seeds: the
// known constructors plus any SeedArg-fact forwarder.
func seedArgs(pass *analysis.Pass, fn *types.Func) []int {
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case prngPath:
			if fn.Name() == "New" && !isMethod(fn) {
				return []int{0}
			}
		case "math/rand":
			if (fn.Name() == "NewSource" || fn.Name() == "Seed") && !isMethod(fn) {
				return []int{0}
			}
		case "math/rand/v2":
			switch fn.Name() {
			case "NewPCG":
				return []int{0, 1}
			case "NewChaCha8":
				return []int{0}
			}
		}
	}
	var fact SeedArg
	if pass.ImportObjectFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// checkSeedShape validates the seed expression against the sanctioned
// grammar and reports (with a mechanical fix where possible) otherwise.
func checkSeedShape(pass *analysis.Pass, al *itslint.Allows, callee *types.Func, seed ast.Expr) {
	e := ast.Unparen(seed)
	switch x := e.(type) {
	case *ast.BasicLit:
		al.ReportFix(seed.Pos(), seed.End(), mixFix(pass, seed, x),
			"raw literal PRNG seed for %s in deterministic package %s: derive seeds through the "+
				"documented splitmix64 mixer (//itslint:seedmixer helpers, e.g. prng.Mix) so streams decorrelate across axes",
			callee.Name(), pass.Pkg.Path())
	case *ast.BinaryExpr:
		checkSeedOp(pass, al, callee, seed, x)
	case *ast.CallExpr:
		// A conversion is transparent: uint64(seed+id) is still bare
		// arithmetic. Real calls (mixers, hashes) are sanctioned.
		if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			checkSeedShape(pass, al, callee, x.Args[0])
		}
	}
}

// checkSeedOp walks an operator chain: XOR is the sanctioned combinator
// (recurse into both sides), tweak-multiply terminates a branch, and
// anything additive/bitwise at combinator level is the collision-prone
// shape the mixer replaces.
func checkSeedOp(pass *analysis.Pass, al *itslint.Allows, callee *types.Func, seed ast.Expr, x *ast.BinaryExpr) {
	switch x.Op {
	case token.XOR:
		for _, side := range []ast.Expr{x.X, x.Y} {
			side = ast.Unparen(side)
			if b, ok := side.(*ast.BinaryExpr); ok {
				checkSeedOp(pass, al, callee, side, b)
			}
			// Idents, selectors, calls and literals are legal XOR operands
			// (a literal here acts as an inline tweak constant).
		}
	case token.MUL:
		// Tweak multiply: uint64(id+1)*machineTweak — operands free-form.
	default:
		var fixes []analysis.SuggestedFix
		if x.Op == token.ADD {
			fixes = mixFix(pass, seed, x.X, x.Y)
		}
		al.ReportFix(x.Pos(), x.End(), fixes,
			"bare %q arithmetic in PRNG seed for %s in deterministic package %s: id+seed shapes "+
				"collide across axes; combine with XOR, a tweak multiply, or the documented mixer (prng.Mix)",
			x.Op.String(), callee.Name(), pass.Pkg.Path())
	}
}

// checkReuse flags a seed expression that already constructed a stream in
// this function: identical seeds draw identical sequences.
func checkReuse(pass *analysis.Pass, al *itslint.Allows, seen map[string]bool, seed ast.Expr) {
	key := exprString(pass.Fset, seed)
	if key == "" {
		return
	}
	if seen[key] {
		al.Report(seed.Pos(),
			"PRNG seed %s in deterministic package %s reuses an earlier stream's seed expression: "+
				"identical seeds draw identical sequences; give each axis its own tweak or mixer argument",
			key, pass.Pkg.Path())
		return
	}
	seen[key] = true
}

// mixFix builds the wrap-in-prng.Mix suggested fix, provided the file
// already imports the prng package (the fix must not edit imports).
func mixFix(pass *analysis.Pass, seed ast.Expr, operands ...ast.Expr) []analysis.SuggestedFix {
	local := prngLocalName(pass, seed.Pos())
	if local == "" {
		return nil
	}
	var buf bytes.Buffer
	buf.WriteString(local)
	buf.WriteString(".Mix(")
	for i, op := range operands {
		if i > 0 {
			buf.WriteString(", ")
		}
		s := exprString(pass.Fset, op)
		if s == "" {
			return nil
		}
		buf.WriteString(s)
	}
	buf.WriteString(")")
	return []analysis.SuggestedFix{{
		Message: "derive the seed through " + local + ".Mix",
		TextEdits: []analysis.TextEdit{{
			Pos: seed.Pos(), End: seed.End(), NewText: buf.Bytes(),
		}},
	}}
}

// prngLocalName returns the local import name of the prng package in the
// file containing pos, or "" if the file does not import it.
func prngLocalName(pass *analysis.Pass, pos token.Pos) string {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			for _, imp := range f.Imports {
				path := imp.Path.Value
				if path != `"`+prngPath+`"` {
					continue
				}
				if imp.Name != nil {
					if imp.Name.Name == "_" || imp.Name.Name == "." {
						return ""
					}
					return imp.Name.Name
				}
				return "prng"
			}
		}
	}
	return ""
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
