package schemafreeze

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

const obsPkg = "itsim/internal/obs"

// checkEvents enforces the event-vocabulary half of the output schema:
// every switch over the obs event type must handle every event kind or
// carry an explicit default. In obs the rule binds the sinks' Write
// methods — a kind that silently falls through one sink makes `itsbench
// diff`, trace-driven comparisons and the CI determinism smoke compare
// incomplete streams. In the stream consumers, replay and cluster, it binds
// every function: these packages interpret traces long after they were
// recorded, so a silently-dropped kind there is a wrong attribution (it
// breaks the conservation cross-check once the kind starts carrying time),
// not just a thinner trace.
func checkEvents(pass *analysis.Pass) {
	var obs *types.Package
	noun := "sink"
	switch pass.Pkg.Path() {
	case obsPkg:
		obs = pass.Pkg
	case "itsim/internal/replay", "itsim/internal/cluster":
		noun = path.Base(pass.Pkg.Path())
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == obsPkg {
				obs = imp
			}
		}
	}
	if obs == nil {
		return
	}
	kinds := eventKinds(obs)
	if len(kinds) == 0 {
		return
	}
	al := itslint.Scan(pass)
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || obs == pass.Pkg && (fd.Recv == nil || fd.Name.Name != "Write") {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil && isEventType(pass.TypesInfo.TypeOf(sw.Tag)) {
					checkSwitch(pass, al, sw, kinds, noun)
				}
				return true
			})
		}
	}
}

// eventKinds returns pkg's package-level constants of the obs event type,
// except the NumTypes array-sizing sentinel, keyed by constant value.
func eventKinds(pkg *types.Package) map[int64]string {
	kinds := make(map[int64]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || name == "NumTypes" || !isEventType(c.Type()) {
			continue
		}
		if v, exact := constant.Int64Val(c.Val()); exact {
			kinds[v] = name
		}
	}
	return kinds
}

// isEventType reports whether t is the obs event-discriminator type (named
// Type, declared in the obs package — matched by import path so the check
// works from both inside obs and from its consumers).
func isEventType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Type" && obj.Pkg() != nil && obj.Pkg().Path() == obsPkg
}

func checkSwitch(pass *analysis.Pass, al *itslint.Allows, sw *ast.SwitchStmt, kinds map[int64]string, noun string) {
	handled := make(map[int64]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: ignoring the rest is a deliberate act
		}
		for _, e := range cc.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				continue
			}
			if v, exact := constant.Int64Val(tv.Value); exact {
				handled[v] = true
			}
		}
	}
	var missing []string
	for v, name := range kinds {
		if !handled[v] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	al.Report(sw.Pos(),
		"%s switch does not handle event kinds %s: handle them or add an explicit default "+
			"so dropping them is a deliberate act",
		noun, strings.Join(missing, ", "))
}
