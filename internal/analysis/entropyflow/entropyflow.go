// Package entropyflow keeps nondeterminism out of the simulator's
// deterministic package set in two modes.
//
// The source ban is syntactic: inside the set, a wall-clock read, a global
// math/rand draw, an environment read or a range over a map is reported at
// the point of use, whether or not its value reaches a sink. It catches
// what value tracking cannot see — a map range whose order leaks through
// control flow or append order, a clock read that only steers a branch.
//
// The flow check is a fact-based interprocedural taint analysis that
// proves laundered nondeterminism cannot reach sim-visible state. It tracks
// source *values* — through assignments, conversions, builtins and (via
// exported facts) across package boundaries — until they hit a
// determinism-critical sink: an event-queue insertion key, an obs.Event
// field, a metrics summary field, or a PRNG seed. A helper package outside
// the set may legally range over a map or read the clock, but the moment
// its return value keys an event or seeds a stream inside the set, two
// identically-seeded runs diverge. The analysis follows the modular
// printf-wrapper style of go/analysis: each function exports facts
// (ReturnsEntropy, ParamEscapesToSink, SeedsRNG) that the driver hands to
// every package analyzed after it, so the fixpoint spans the whole
// build graph without SSA or whole-program loading.
//
// Taint sources:
//   - calls to the itslint.EntropySources table (time.Now, global math/rand,
//     os env — the source ban's table too),
//   - map iteration order (range over a map taints the key and value),
//   - select arrival order (a comm-clause receive taints its binding),
//   - unsafe.Pointer/uintptr conversions of pointers (address-space layout),
//   - calls to functions carrying a ReturnsEntropy fact.
//
// Sanitizers: sort.* / slices.Sort* calls cleanse their argument, and a
// justified //itslint:allow on a source line sanitizes that source. The
// directive is counted once, by the source ban's report — one annotation,
// one budget entry.
//
// The pass also owns directive hygiene for every package: an
// //itslint:allow without a reason is reported wherever it appears.
package entropyflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the entropyflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "entropyflow",
	Doc: "forbid wall-clock time, global math/rand, environment reads and map iteration in the " +
		"simulator's deterministic packages, and track nondeterministic values interprocedurally into " +
		"event-queue keys, obs events, metrics summaries or PRNG seeds (suppress with //itslint:allow <reason>)",
	Run: run,
	FactTypes: []analysis.Fact{
		(*ReturnsEntropy)(nil),
		(*ParamEscapesToSink)(nil),
		(*SeedsRNG)(nil),
	},
}

// ReturnsEntropy marks a function whose return value carries entropy — a
// wall-clock read, global-rand draw, map-order-dependent result, or the
// propagated result of calling such a function.
type ReturnsEntropy struct {
	Why string // entropy class, with the laundering chain appended
}

func (*ReturnsEntropy) AFact()           {}
func (f *ReturnsEntropy) String() string { return "ReturnsEntropy(" + f.Why + ")" }

// ParamEscapesToSink marks a function that forwards one or more of its
// parameters into a determinism-critical sink (directly or transitively).
type ParamEscapesToSink struct {
	Params []int  // zero-based parameter indices, sorted
	Sink   string // sink description; multiple sinks joined with "; "
}

func (*ParamEscapesToSink) AFact() {}
func (f *ParamEscapesToSink) String() string {
	return fmt.Sprintf("ParamEscapesToSink(%v → %s)", f.Params, f.Sink)
}

// SeedsRNG marks a function that uses one or more of its parameters as a
// PRNG seed (directly or transitively) — the hook seedflow-style audits and
// call-site taint checks share.
type SeedsRNG struct {
	Params []int // zero-based parameter indices, sorted
}

func (*SeedsRNG) AFact()           {}
func (f *SeedsRNG) String() string { return fmt.Sprintf("SeedsRNG(%v)", f.Params) }

const rngSeedSink = "PRNG seed"

func run(pass *analysis.Pass) (any, error) {
	itslint.CheckDirectives(pass)
	al := itslint.Scan(pass)
	det := itslint.Deterministic(pass.Pkg.Path())

	var funcs []*ast.FuncDecl
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		if det {
			banSources(pass, al, f)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
	}

	// Fixpoint over the package's functions: facts exported for one function
	// are visible when a later (or earlier, on the next round) function in
	// the same package calls it. Facts only grow, so this terminates.
	for iter := 0; iter <= len(funcs)+1; iter++ {
		changed := false
		for _, fd := range funcs {
			if analyzeFunc(pass, al, fd, false, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass, after all facts have settled.
	for _, fd := range funcs {
		analyzeFunc(pass, al, fd, true, det)
	}
	return nil, nil
}

// banSources reports every direct entropy source in f: calls into the
// itslint.EntropySources table and ranges over a map. Only package-level
// functions are sources — a seeded *rand.Rand method draw is deterministic,
// the global source is not. Order-insensitive map folds carry a justified
// //itslint:allow.
func banSources(pass *analysis.Pass, al *itslint.Allows, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			if why, banned := itslint.EntropySource(fn); banned {
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

// taintVal describes why a value is suspect: Why names the entropy class it
// carries (empty if none), params records which enclosing-function
// parameters it derives from (for fact synthesis).
type taintVal struct {
	why    string
	params map[int]bool
}

func (t *taintVal) clone() *taintVal {
	c := &taintVal{why: t.why, params: make(map[int]bool, len(t.params))}
	for p := range t.params {
		c.params[p] = true
	}
	return c
}

// merge folds b into a, returning the merged value (either may be nil).
func merge(a, b *taintVal) *taintVal {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	if out.why == "" {
		out.why = b.why
	}
	for p := range b.params {
		out.params[p] = true
	}
	return out
}

// funcState is the per-function analysis state.
type funcState struct {
	pass   *analysis.Pass
	al     *itslint.Allows
	taint  map[types.Object]*taintVal
	params map[types.Object]int // parameter object → index
	emit   bool                 // final pass: record escapes/returns
	report bool                 // emit diagnostics (deterministic package)

	returnsWhy string           // first entropy class seen flowing to a return
	escapes    map[string][]int // sink → param indices reaching it
	// selComm marks the comm-clause assignments of select statements, whose
	// bindings carry arrival-order entropy (recorded when the enclosing
	// SelectStmt is visited, which pre-order traversal guarantees happens
	// before the assignment itself).
	selComm map[*ast.AssignStmt]bool
}

// analyzeFunc runs the in-order taint walk over fd (three passes, so taint
// carried backward by a loop still converges) and, when emit is set, exports
// the function's facts and reports sink violations. It returns whether the
// exported facts changed.
func analyzeFunc(pass *analysis.Pass, al *itslint.Allows, fd *ast.FuncDecl, emit, report bool) bool {
	fnObj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	st := &funcState{
		pass:    pass,
		al:      al,
		taint:   make(map[types.Object]*taintVal),
		params:  make(map[types.Object]int),
		escapes: make(map[string][]int),
		selComm: make(map[*ast.AssignStmt]bool),
	}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					st.params[obj] = idx
					st.taint[obj] = &taintVal{params: map[int]bool{idx: true}}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	// Two silent walks to propagate loop-carried taint, then the walk that
	// records escapes, returns and (in the deterministic set) diagnostics.
	st.walk(fd.Body)
	st.walk(fd.Body)
	st.emit, st.report = emit, report
	st.walk(fd.Body)
	if !emit {
		// During fixpoint iterations, facts come from a silent emit walk.
		st.emit = true
		st.report = false
		st.walk(fd.Body)
	}
	return st.exportFacts(fnObj)
}

// exportFacts merges the walk's findings into the function's facts,
// reporting whether anything new was learned.
func (st *funcState) exportFacts(fn *types.Func) bool {
	changed := false
	if st.returnsWhy != "" {
		var prev ReturnsEntropy
		if !st.pass.ImportObjectFact(fn, &prev) {
			st.pass.ExportObjectFact(fn, &ReturnsEntropy{Why: st.returnsWhy})
			changed = true
		}
	}
	var sinkNames []string
	paramSet := make(map[int]bool)
	var rngParams []int
	for sink, params := range st.escapes {
		if sink == rngSeedSink {
			rngParams = append(rngParams, params...)
			continue
		}
		sinkNames = append(sinkNames, sink)
		for _, p := range params {
			paramSet[p] = true
		}
	}
	if len(sinkNames) > 0 {
		sort.Strings(sinkNames)
		fact := &ParamEscapesToSink{Params: sortedKeys(paramSet), Sink: strings.Join(sinkNames, "; ")}
		var prev ParamEscapesToSink
		if !st.pass.ImportObjectFact(fn, &prev) || !equalInts(prev.Params, fact.Params) || prev.Sink != fact.Sink {
			// Merge with whatever was known before: facts only grow.
			for _, p := range prev.Params {
				paramSet[p] = true
			}
			fact.Params = sortedKeys(paramSet)
			if prev.Sink != "" && prev.Sink != fact.Sink {
				fact.Sink = mergeSinks(prev.Sink, fact.Sink)
			}
			if !equalInts(prev.Params, fact.Params) || prev.Sink != fact.Sink {
				st.pass.ExportObjectFact(fn, fact)
				changed = true
			}
		}
	}
	if len(rngParams) > 0 {
		set := make(map[int]bool)
		for _, p := range rngParams {
			set[p] = true
		}
		var prev SeedsRNG
		had := st.pass.ImportObjectFact(fn, &prev)
		for _, p := range prev.Params {
			set[p] = true
		}
		fact := &SeedsRNG{Params: sortedKeys(set)}
		if !had || !equalInts(prev.Params, fact.Params) {
			st.pass.ExportObjectFact(fn, fact)
			changed = true
		}
	}
	return changed
}

func mergeSinks(a, b string) string {
	set := make(map[string]bool)
	for _, s := range strings.Split(a, "; ") {
		set[s] = true
	}
	for _, s := range strings.Split(b, "; ") {
		set[s] = true
	}
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	return strings.Join(names, "; ")
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

// walk processes the function body in source order, propagating taint and —
// on the emit pass — recording sinks and returns.
func (st *funcState) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.assign(n)
		case *ast.ValueSpec:
			st.valueSpec(n)
		case *ast.RangeStmt:
			st.rangeStmt(n)
		case *ast.SelectStmt:
			st.selectStmt(n)
		case *ast.CallExpr:
			st.callSite(n)
		case *ast.CompositeLit:
			st.compositeLit(n)
		case *ast.ReturnStmt:
			st.returnStmt(n)
		}
		return true
	})
}

func (st *funcState) objOf(id *ast.Ident) types.Object {
	if obj := st.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return st.pass.TypesInfo.Uses[id]
}

// rootObj returns the object of the base identifier of a chain like
// x.f[i].g, for field-insensitive container tainting.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Defs[x]; obj != nil {
				return obj
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (st *funcState) assign(n *ast.AssignStmt) {
	pairwise := len(n.Lhs) == len(n.Rhs)
	var tupleTaint *taintVal
	if !pairwise && len(n.Rhs) == 1 {
		tupleTaint = st.exprTaint(n.Rhs[0])
	}
	var commTaint *taintVal
	if st.selComm[n] {
		commTaint = &taintVal{why: "select arrival order", params: map[int]bool{}}
	}
	for i, lhs := range n.Lhs {
		var tv *taintVal
		if pairwise {
			tv = st.exprTaint(n.Rhs[i])
		} else {
			tv = tupleTaint
		}
		tv = merge(tv, commTaint)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := st.objOf(l)
			if obj == nil {
				continue
			}
			if _, isParam := st.params[obj]; isParam {
				// A parameter keeps its param identity; merge new taint in.
				if tv != nil {
					st.taint[obj] = merge(st.taint[obj], tv)
				}
				continue
			}
			switch {
			case tv != nil && n.Tok == token.ASSIGN:
				st.taint[obj] = tv.clone()
			case tv != nil:
				st.taint[obj] = merge(st.taint[obj], tv)
			case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
				// Strong update with a clean value sanitizes.
				delete(st.taint, obj)
			}
		case *ast.SelectorExpr:
			// Writing into a struct field: sink check on determinism-
			// critical structs, then field-insensitive container taint.
			if tv != nil {
				if base := st.pass.TypesInfo.Types[l.X]; base.Type != nil {
					if sink, ok := structSink(base.Type); ok {
						st.sinkHit(n.Pos(), sink, tv, "")
					}
				}
				if obj := rootObj(st.pass.TypesInfo, l.X); obj != nil {
					st.taint[obj] = merge(st.taint[obj], tv)
				}
			}
		case *ast.IndexExpr, *ast.StarExpr:
			if tv != nil {
				if obj := rootObj(st.pass.TypesInfo, l); obj != nil {
					st.taint[obj] = merge(st.taint[obj], tv)
				}
			}
		}
	}
}

func (st *funcState) valueSpec(n *ast.ValueSpec) {
	for i, name := range n.Names {
		if name.Name == "_" || i >= len(n.Values) && len(n.Values) != 1 {
			continue
		}
		var tv *taintVal
		if len(n.Values) == len(n.Names) {
			tv = st.exprTaint(n.Values[i])
		} else if len(n.Values) == 1 {
			tv = st.exprTaint(n.Values[0])
		}
		if tv != nil {
			if obj := st.pass.TypesInfo.Defs[name]; obj != nil {
				st.taint[obj] = merge(st.taint[obj], tv)
			}
		}
	}
}

func (st *funcState) rangeStmt(n *ast.RangeStmt) {
	tv, ok := st.pass.TypesInfo.Types[n.X]
	if !ok {
		return
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	inherited := st.exprTaint(n.X)
	for _, bind := range []ast.Expr{n.Key, n.Value} {
		if bind == nil {
			continue
		}
		id, ok := ast.Unparen(bind).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := st.objOf(id)
		if obj == nil {
			continue
		}
		var t *taintVal
		if isMap && !st.al.Sanctioned(n.Pos()) {
			t = &taintVal{why: "map iteration order", params: map[int]bool{}}
		}
		t = merge(t, inherited)
		if t != nil {
			st.taint[obj] = merge(st.taint[obj], t)
		}
	}
}

func (st *funcState) selectStmt(n *ast.SelectStmt) {
	for _, clause := range n.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		assign, ok := comm.Comm.(*ast.AssignStmt)
		if !ok || st.al.Sanctioned(comm.Pos()) {
			continue
		}
		st.selComm[assign] = true
	}
}

func (st *funcState) returnStmt(n *ast.ReturnStmt) {
	if !st.emit {
		return
	}
	for _, res := range n.Results {
		if tv := st.exprTaint(res); tv != nil && tv.why != "" && st.returnsWhy == "" {
			st.returnsWhy = tv.why
		}
	}
}

func (st *funcState) compositeLit(n *ast.CompositeLit) {
	typ := st.pass.TypesInfo.TypeOf(n)
	if typ == nil {
		return
	}
	sink, ok := structSink(typ)
	if !ok {
		return
	}
	for _, elt := range n.Elts {
		val := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			val = kv.Value
		}
		if tv := st.exprTaint(val); tv != nil {
			st.sinkHit(n.Pos(), sink, tv, "")
		}
	}
}

// callSite performs the sink and callee-fact checks for one call.
func (st *funcState) callSite(call *ast.CallExpr) {
	fn := calleeFunc(st.pass, call)
	if fn == nil {
		return
	}
	via := ""
	// Direct sinks of the call's own signature.
	for _, argIdx := range directSinkArgs(fn) {
		if argIdx < len(call.Args) {
			if tv := st.exprTaint(call.Args[argIdx]); tv != nil {
				st.sinkHit(call.Pos(), sinkNameFor(fn), tv, via)
			}
		}
	}
	// Facts: the callee forwards parameters into sinks somewhere downstream.
	var esc ParamEscapesToSink
	if st.pass.ImportObjectFact(fn, &esc) {
		via = fmt.Sprintf(" via %s", funcName(fn))
		for _, p := range esc.Params {
			if p < len(call.Args) {
				if tv := st.exprTaint(call.Args[p]); tv != nil {
					st.sinkHit(call.Pos(), esc.Sink, tv, via)
				}
			}
		}
	}
	var seeds SeedsRNG
	if st.pass.ImportObjectFact(fn, &seeds) {
		via = fmt.Sprintf(" via %s", funcName(fn))
		for _, p := range seeds.Params {
			if p < len(call.Args) {
				if tv := st.exprTaint(call.Args[p]); tv != nil {
					st.sinkHit(call.Pos(), rngSeedSink, tv, via)
				}
			}
		}
	}
	// Sanitizers: sort.X(arg) / slices.SortX(arg) cleanse the argument.
	if isSanitizer(fn) && len(call.Args) > 0 {
		if obj := rootObj(st.pass.TypesInfo, call.Args[0]); obj != nil {
			if t := st.taint[obj]; t != nil {
				if _, isParam := st.params[obj]; !isParam {
					delete(st.taint, obj)
				} else {
					st.taint[obj] = &taintVal{params: map[int]bool{st.params[obj]: true}}
				}
			}
		}
	}
}

// sinkHit records (and, in the deterministic set, reports) taint reaching a
// sink: entropy is a diagnostic, parameter derivation becomes a fact.
func (st *funcState) sinkHit(pos token.Pos, sink string, tv *taintVal, via string) {
	if !st.emit {
		return
	}
	for p := range tv.params {
		st.escapes[sink] = append(st.escapes[sink], p)
	}
	if tv.why != "" && st.report {
		st.al.Report(pos,
			"%s flows into %s%s in deterministic package %s: nondeterminism becomes sim-visible state and breaks bit-exact replay",
			tv.why, sink, via, st.pass.Pkg.Path())
	}
}

// exprTaint computes the taint of an expression from the current state.
func (st *funcState) exprTaint(e ast.Expr) *taintVal {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.objOf(e); obj != nil {
			return st.taint[obj]
		}
	case *ast.SelectorExpr:
		// Field of a tainted value, or a (possibly tainted) package object.
		if tv := st.exprTaint(e.X); tv != nil {
			return tv
		}
		if obj := st.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			return st.taint[obj]
		}
	case *ast.IndexExpr:
		return merge(st.exprTaint(e.X), st.exprTaint(e.Index))
	case *ast.SliceExpr:
		return st.exprTaint(e.X)
	case *ast.StarExpr:
		return st.exprTaint(e.X)
	case *ast.UnaryExpr:
		return st.exprTaint(e.X)
	case *ast.BinaryExpr:
		return merge(st.exprTaint(e.X), st.exprTaint(e.Y))
	case *ast.TypeAssertExpr:
		return st.exprTaint(e.X)
	case *ast.KeyValueExpr:
		return st.exprTaint(e.Value)
	case *ast.CompositeLit:
		var out *taintVal
		for _, elt := range e.Elts {
			out = merge(out, st.exprTaint(elt))
		}
		return out
	case *ast.CallExpr:
		return st.callTaint(e)
	}
	return nil
}

// callTaint computes the taint of a call's result: conversions and builtins
// propagate operand taint, entropy sources and ReturnsEntropy callees
// introduce it, everything else is clean (facts are the only conduit).
func (st *funcState) callTaint(call *ast.CallExpr) *taintVal {
	// Type conversion T(x): propagates, and unsafe address conversions are
	// themselves sources (pointer values change across runs with ASLR).
	if tv, ok := st.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		argTaint := st.exprTaint(call.Args[0])
		if isUnsafeConv(st.pass, tv.Type, call.Args[0]) && !st.al.Sanctioned(call.Pos()) {
			return merge(&taintVal{why: "pointer-address entropy (unsafe conversion)", params: map[int]bool{}}, argTaint)
		}
		return argTaint
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := st.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "len", "cap", "append", "min", "max":
				var out *taintVal
				for _, arg := range call.Args {
					out = merge(out, st.exprTaint(arg))
				}
				return out
			}
			return nil
		}
	}
	fn := calleeFunc(st.pass, call)
	if fn == nil {
		return nil
	}
	if why, banned := itslint.EntropySource(fn); banned {
		if st.al.Sanctioned(call.Pos()) {
			return nil
		}
		return &taintVal{why: why, params: map[int]bool{}}
	}
	var ret ReturnsEntropy
	if st.pass.ImportObjectFact(fn, &ret) {
		why := ret.Why
		if !strings.Contains(why, "via ") {
			why = fmt.Sprintf("%s (via %s)", why, funcName(fn))
		}
		return &taintVal{why: why, params: map[int]bool{}}
	}
	return nil
}

// calleeFunc resolves the called function or method, or nil for indirect
// calls, builtins and conversions.
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

func funcName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// directSinkArgs returns the argument indices of fn that are determinism-
// critical sinks by signature.
func directSinkArgs(fn *types.Func) []int {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	switch pkg.Path() {
	case "itsim/internal/sim":
		if recvNamed(fn) == "Engine" {
			switch fn.Name() {
			case "Schedule", "ScheduleHandler", "ScheduleAfter":
				return []int{0}
			}
		}
	case "itsim/internal/prng":
		if fn.Name() == "New" && recvNamed(fn) == "" {
			return []int{0}
		}
	case "math/rand":
		switch fn.Name() {
		case "NewSource", "Seed":
			if recvNamed(fn) == "" {
				return []int{0}
			}
		}
	case "math/rand/v2":
		switch fn.Name() {
		case "NewPCG":
			return []int{0, 1}
		case "NewChaCha8":
			return []int{0}
		}
	}
	return nil
}

// sinkNameFor names the sink class of a direct-sink function.
func sinkNameFor(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "itsim/internal/sim" {
		return "event-queue insertion key"
	}
	return rngSeedSink
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// structSink reports whether writing a field of typ is a determinism-
// critical sink: obs.Event feeds the trace stream, and every exported
// struct in internal/metrics is (transitively) part of a frozen summary.
func structSink(typ types.Type) (string, bool) {
	t := typ
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return "", false
	}
	switch n.Obj().Pkg().Path() {
	case "itsim/internal/obs":
		if n.Obj().Name() == "Event" {
			return "obs event field", true
		}
	case "itsim/internal/metrics":
		if n.Obj().Exported() {
			return "metrics summary field", true
		}
	}
	return "", false
}

// isUnsafeConv reports whether converting arg to typ crosses the
// pointer/integer boundary: unsafe.Pointer→uintptr or pointer→unsafe.Pointer.
func isUnsafeConv(pass *analysis.Pass, typ types.Type, arg ast.Expr) bool {
	argType := pass.TypesInfo.TypeOf(arg)
	if argType == nil {
		return false
	}
	if b, ok := typ.Underlying().(*types.Basic); ok {
		if b.Kind() == types.Uintptr && isUnsafePointer(argType) {
			return true
		}
		return false
	}
	if isUnsafePointer(typ) {
		_, isPtr := argType.Underlying().(*types.Pointer)
		return isPtr || isUnsafePointer(argType)
	}
	return false
}

func isUnsafePointer(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

// isSanitizer reports whether fn imposes a deterministic order on its
// argument: the sort/slices sorting entry points.
func isSanitizer(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Sort", "Stable", "Slice", "SliceStable":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}
