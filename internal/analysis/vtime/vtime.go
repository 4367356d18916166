// Package vtime flags arithmetic that mixes virtual-time values
// (itsim/internal/sim.Time, an int64 nanosecond count) with non-time
// integers — cycle counts, byte sizes, record counts — the unit-confusion
// class of bug that corrupts the per-core conservation ledger
// (CPUTime + SchedulerIdle + ContextSwitchTime == LocalClock) without
// breaking the type checker, since any integer converts to sim.Time.
//
// Three patterns are flagged in the deterministic packages:
//
//  1. t1 * t2 where both operands are (non-constant, non-converted)
//     sim.Time values: time × time is time², never a duration. Scaling a
//     per-item cost by a count is written cost*sim.Time(n) — the explicit
//     conversion marks the operand as a scalar and is not flagged.
//  2. t ± sim.Time(x) where x is a non-constant integer or unitless float
//     expression: adding a freshly converted raw number to a timestamp is
//     how byte counts and cycle counts sneak into the clock. Convert at the
//     rate boundary instead (ns = units / unitsPerNs), as the clock helpers
//     do. The sanctioned fractional-scaling shape is exempt: a float
//     product/quotient with a float64(<sim.Time>) factor — frac *
//     float64(span), float64(t) * WarmMult — carries its time units inside
//     the expression, so chaos/resilience multiplier scaling needs no
//     allow-comment.
//  3. t OP sim.Time(x) comparisons with a freshly converted non-constant
//     integer, the same confusion on the comparison path.
//
// The conversion helpers themselves — package itsim/internal/sim and the
// designated clock/ledger helpers in itsim/internal/exec — are exempt:
// converting at the rate boundary is their job. Anything else that is
// genuinely unit-correct carries a //itslint:allow justification.
package vtime

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the vtime pass.
var Analyzer = &analysis.Analyzer{
	Name: "vtime",
	Doc: "flag arithmetic mixing virtual-time (sim.Time) values with converted non-time integers " +
		"outside the clock/ledger helpers",
	Run: run,
}

// simPkg is the package defining the virtual-time type.
const simPkg = "itsim/internal/sim"

// exemptFuncs names the clock/ledger helpers of itsim/internal/exec allowed
// to convert raw integers inside time arithmetic: they ARE the rate
// boundary. Keyed by declared function name.
var exemptFuncs = map[string]bool{
	// Core.RunUntil owns the instructions→ns carry arithmetic
	// (instCarry / the InstPerNs constant) that turns compute gaps into
	// clock time.
	"RunUntil": true,
	// Core.advance is the clock-mutation choke point charging time to
	// the process, the ledger and the engine in one place.
	"advance": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !itslint.Deterministic(pass) {
		return nil, nil
	}
	al := itslint.Scan(pass)
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if isFunc && pass.Pkg.Path() == "itsim/internal/exec" && exemptFuncs[fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if be, ok := n.(*ast.BinaryExpr); ok {
					checkBinary(pass, al, be)
				}
				return true
			})
		}
	}
	return nil, nil
}

func checkBinary(pass *analysis.Pass, al *itslint.Allows, be *ast.BinaryExpr) {
	switch be.Op {
	case token.MUL:
		if isTime(pass, be.X) && isTime(pass, be.Y) &&
			!isConst(pass, be.X) && !isConst(pass, be.Y) &&
			!isTimeConv(pass, be.X) && !isTimeConv(pass, be.Y) {
			al.Report(be.Pos(),
				"multiplying two virtual-time values: time × time is time², not a duration; "+
					"scale with an explicit count conversion (cost * sim.Time(n)) or fix the units")
		}
	case token.ADD, token.SUB:
		if !isTime(pass, be.X) && !isTime(pass, be.Y) {
			return
		}
		reportFreshConv(pass, al, be, "adds")
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if !isTime(pass, be.X) && !isTime(pass, be.Y) {
			return
		}
		reportFreshConv(pass, al, be, "compares")
	}
}

// reportFreshConv flags the operand that is a conversion of a non-constant
// non-time integer — or unitless float — directly inside time arithmetic.
func reportFreshConv(pass *analysis.Pass, al *itslint.Allows, be *ast.BinaryExpr, verb string) {
	for _, op := range [2]ast.Expr{be.X, be.Y} {
		arg, ok := timeConvArg(pass, op)
		if !ok || isConst(pass, op) || isTime(pass, arg) {
			continue
		}
		if isFloat(pass, arg) {
			if hasTimeFactor(pass, arg) {
				continue // sanctioned fractional scaling: units ride the float64(<sim.Time>) factor
			}
			al.Report(op.Pos(),
				"virtual-time arithmetic %s sim.Time(%s): the converted float carries no time units; "+
					"scale a duration instead (frac * float64(span)) or convert at the rate boundary",
				verb, exprString(arg))
			continue
		}
		if !isInteger(pass, arg) {
			continue
		}
		al.Report(op.Pos(),
			"virtual-time arithmetic %s sim.Time(%s): converting a raw %s inside time arithmetic "+
				"is the byte/cycle-count-as-nanoseconds bug; convert at the rate boundary or justify with //itslint:allow",
			verb, exprString(arg), pass.TypesInfo.TypeOf(arg))
	}
}

// hasTimeFactor reports whether the float expression carries its time
// units internally: some multiplicative factor is itself a float conversion
// of a sim.Time value (the frac*float64(span) / float64(t)*mult shape). A
// sum or difference is unit-carrying only when both sides are.
func hasTimeFactor(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.MUL, token.QUO:
			return hasTimeFactor(pass, e.X) || hasTimeFactor(pass, e.Y)
		case token.ADD, token.SUB:
			return hasTimeFactor(pass, e.X) && hasTimeFactor(pass, e.Y)
		}
	case *ast.CallExpr:
		if arg, ok := floatConvArg(pass, e); ok {
			return isTime(pass, arg) || hasTimeFactor(pass, arg)
		}
	}
	return false
}

// isTime reports whether e's type is sim.Time.
func isTime(pass *analysis.Pass, e ast.Expr) bool {
	return isTimeType(pass.TypesInfo.TypeOf(e))
}

func isTimeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == simPkg
}

// isInteger reports whether e's core type is an integer — the classic
// unit-confusion class: byte, line, cycle and record counts used directly
// as nanoseconds.
func isInteger(pass *analysis.Pass, e ast.Expr) bool {
	basic, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// isFloat reports whether e's core type is a float.
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	basic, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// floatConvArg returns the argument of a float32/float64(...) conversion.
func floatConvArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// isConst reports whether e folds to a compile-time constant.
func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isTimeConv reports whether e is syntactically a conversion to sim.Time.
func isTimeConv(pass *analysis.Pass, e ast.Expr) bool {
	_, ok := timeConvArg(pass, e)
	return ok
}

// timeConvArg returns the argument of a sim.Time(...) conversion expression.
func timeConvArg(pass *analysis.Pass, e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || !isTimeType(tv.Type) {
		return nil, false
	}
	return call.Args[0], true
}

// exprString renders a short source form of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	default:
		return "…"
	}
}
