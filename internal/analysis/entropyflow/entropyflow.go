// Package entropyflow keeps nondeterminism out of the simulator's
// deterministic package set with a source ban: inside the set, a wall-clock
// read, a global math/rand draw, an environment read, a range over a map or
// a pointer→uintptr conversion is reported at the point of use, whether or
// not its value reaches sim-visible state. The ban sees what value tracking
// cannot — a map range whose order leaks through control flow or append
// order, a clock read that only steers a branch.
//
// The set is the import closure of the simulator roots (see
// itslint.SimulatorRoots), so every package a run can call is inside it.
// A helper that ranges over a map and hands the result to the simulator is
// therefore itself in the set and reported at its range; no entropy can
// arrive from outside, and no interprocedural value tracking is needed.
//
// The pass also owns directive hygiene for every package: an
// //itslint:allow without a reason is reported wherever it appears.
package entropyflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the entropyflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "entropyflow",
	Doc: "forbid wall-clock time, global math/rand, environment reads, map iteration and pointer-address " +
		"conversions in the simulator's deterministic packages (suppress with //itslint:allow <reason>)",
	Run: run,
}

// sources maps package path → function name → the nondeterminism class a
// call introduces. Only package-level functions are sources: a seeded
// *rand.Rand method draw is deterministic, the global source is not.
var sources = map[string]map[string]string{
	"time": class("wall-clock read", "Now", "Since", "Until"),
	"math/rand": class("global math/rand source",
		"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "Uint32", "Uint64", "Float32", "Float64",
		"ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Seed", "Read"),
	"math/rand/v2": class("global math/rand/v2 source",
		"Int", "IntN", "Int32", "Int32N", "Int64", "Int64N", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"N", "Float32", "Float64", "Perm", "Shuffle", "ExpFloat64", "NormFloat64"),
	"os": class("environment-dependent behaviour", "Getenv", "LookupEnv", "Environ", "ExpandEnv"),
}

// class maps each function name to why.
func class(why string, names ...string) map[string]string {
	m := make(map[string]string, len(names))
	for _, name := range names {
		m[name] = why
	}
	return m
}

func run(pass *analysis.Pass) (any, error) {
	itslint.CheckDirectives(pass)
	if !itslint.Deterministic(pass) {
		return nil, nil
	}
	al := itslint.Scan(pass)
	for _, f := range pass.Files {
		if !itslint.IsTestFile(pass, f.Pos()) {
			banSources(pass, al, f)
		}
	}
	return nil, nil
}

// banSources reports every entropy source in f. Order-insensitive map folds
// carry a justified //itslint:allow.
func banSources(pass *analysis.Pass, al *itslint.Allows, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				if len(n.Args) == 1 && isUnsafeConv(pass, tv.Type, n.Args[0]) {
					al.Report(n.Pos(),
						"conversion of unsafe.Pointer to %s in deterministic package %s: pointer addresses change from run to run",
						tv.Type, pass.Pkg.Path())
				}
				break
			}
			fn := itslint.CalleeFunc(pass, n)
			if why, banned := entropySource(fn); banned {
				al.Report(n.Pos(),
					"call to %s.%s in deterministic package %s: %s breaks bit-exact replay",
					fn.Pkg().Path(), fn.Name(), pass.Pkg.Path(), why)
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				break
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				al.Report(n.Pos(),
					"range over map %s in deterministic package %s: iteration order is randomized per run; "+
						"iterate sorted keys (or annotate an order-insensitive fold with //itslint:allow <reason>)",
					tv.Type.String(), pass.Pkg.Path())
			}
		}
		return true
	})
}

// entropySource reports whether fn is one of the banned package-level
// functions, and the class it belongs to.
func entropySource(fn *types.Func) (why string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, sok := fn.Type().(*types.Signature); !sok || sig.Recv() != nil {
		return "", false
	}
	why, ok = sources[fn.Pkg().Path()][fn.Name()]
	return why, ok
}

// isUnsafeConv reports whether converting arg to typ turns a pointer into
// an integer: unsafe.Pointer→uintptr.
func isUnsafeConv(pass *analysis.Pass, typ types.Type, arg ast.Expr) bool {
	return isBasic(typ, types.Uintptr) && isBasic(pass.TypesInfo.TypeOf(arg), types.UnsafePointer)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}
