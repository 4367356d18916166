// Package gospawn forbids host concurrency — `go` statements, channel
// operations, select — inside the simulator's deterministic core. The
// discrete-event engine is single-threaded by construction: virtual time
// advances under one logical thread per run, and any host-level concurrency
// inside the core would let OS scheduling order leak into event order.
//
// The only sanctioned concurrency is the host-parallel batch layer in
// itsim/internal/core: its runJobs worker pool fans whole runs out across
// host cores, each run still fully deterministic in isolation (serial order
// is re-imposed when tracing). runJobs is allowlisted; the entry points
// that use it (RunGrid, RunSensitivity, RunSpinSweep) spawn nothing
// themselves, and everything else in the deterministic packages and
// internal/core is flagged.
package gospawn

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the gospawn pass.
var Analyzer = &analysis.Analyzer{
	Name: "gospawn",
	Doc: "forbid goroutines and channel operations in the deterministic simulator core " +
		"(the host-parallel worker pool core.runJobs is allowlisted)",
	Run: run,
}

// hostParallelPkg is the batch layer allowed to use host concurrency in
// hostParallelFunc only.
const hostParallelPkg = "itsim/internal/core"

// hostParallelFunc is the worker pool every host-parallel entry point of
// internal/core delegates to.
const hostParallelFunc = "runJobs"

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !itslint.Deterministic(pass) && path != hostParallelPkg {
		return nil, nil
	}
	al := itslint.Scan(pass)
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if path == hostParallelPkg && fd.Name.Name == hostParallelFunc {
				continue // the sanctioned worker pool
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				checkNode(pass, al, n)
				return true
			})
		}
	}
	return nil, nil
}

func checkNode(pass *analysis.Pass, al *itslint.Allows, n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		al.Report(n.Pos(),
			"go statement in deterministic core package %s: host scheduling order would leak into virtual-event order",
			pass.Pkg.Path())
	case *ast.SendStmt:
		al.Report(n.Pos(), "channel send in deterministic core package %s", pass.Pkg.Path())
	case *ast.UnaryExpr:
		if n.Op.String() == "<-" {
			al.Report(n.Pos(), "channel receive in deterministic core package %s", pass.Pkg.Path())
		}
	case *ast.SelectStmt:
		al.Report(n.Pos(), "select statement in deterministic core package %s", pass.Pkg.Path())
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				al.Report(n.Pos(), "range over channel in deterministic core package %s", pass.Pkg.Path())
			}
		}
	case *ast.CallExpr:
		fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok || len(n.Args) == 0 {
			return
		}
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); !ok || (b.Name() != "close" && b.Name() != "make") {
			return
		}
		if tv, ok := pass.TypesInfo.Types[n.Args[0]]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && fun.Name == "close" {
				al.Report(n.Pos(), "close of channel in deterministic core package %s", pass.Pkg.Path())
			}
		}
		if fun.Name == "make" {
			if tv, ok := pass.TypesInfo.Types[n.Args[0]]; ok && tv.IsType() {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					al.Report(n.Pos(), "make(chan) in deterministic core package %s", pass.Pkg.Path())
				}
			}
		}
	}
}
