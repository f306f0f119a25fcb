package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimAPIAnalyzer guards the simulation kernel's unsigned clock. All delays
// are sim.Cycles (uint64): a delay computed as `deadline - now` silently
// wraps to ~2^64 when the subtraction goes negative, and the kernel then
// schedules the wakeup past the end of time — the process hangs and the
// run deadlocks with no diagnostic pointing at the call site.
//
// The analyzer flags scheduling calls (Delay/After) whose duration
// argument contains a subtraction, unless an enclosing if-condition
// compares the same two operands (the clamp idiom):
//
//	if deadline > now {
//		p.Delay(deadline - now)
//	}
//
// Call sites that prove ordering another way (e.g. `done` was computed
// as `now + cost` two lines up) carry a //lint:ignore simapi comment
// stating that proof.
func SimAPIAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "simapi",
		Doc:  "scheduling delays must not be computed from subtractions that can go negative",
		Run:  runSimAPI,
	}
}

// simDelayFuncs maps scheduling entry points taking a relative duration
// as their first argument. Absolute-time calls (At, RunUntil) are exempt:
// they take a deadline, not a difference.
var simDelayFuncs = map[string]bool{"Delay": true, "After": true}

// runSimAPI walks every body carrying the ordering comparisons of the
// enclosing if and for conditions.
func runSimAPI(pass *Pass) {
	inside := func(guards []*ast.BinaryExpr, cond ast.Expr) []*ast.BinaryExpr {
		return append(guards, comparisonsIn(cond)...)
	}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		walkGuarded(fd.Body.List, nil, inside, nil, func(guards []*ast.BinaryExpr, call *ast.CallExpr) {
			name := calleeName(call)
			if !simDelayFuncs[name] || len(call.Args) == 0 {
				return
			}
			if sub := findSubtraction(call.Args[0]); sub != nil && !clampedBy(guards, sub) {
				pass.Reportf(sub.Pos(), "%s duration computed by subtraction: sim.Cycles is unsigned, a negative difference wraps to ~2^64 and stalls the process forever; clamp (`if a > b { ... }`) or prove ordering with //lint:ignore simapi <proof>", name)
			}
		})
	})
}

// findSubtraction returns the first token.SUB binary expression in the
// argument subtree, not descending into nested function literals.
func findSubtraction(e ast.Expr) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.SUB {
			found = be
			return false
		}
		return true
	})
	return found
}

// comparisonsIn collects the ordering comparisons of an if-condition,
// looking through && conjunctions.
func comparisonsIn(cond ast.Expr) []*ast.BinaryExpr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.GTR, token.GEQ, token.LSS, token.LEQ, token.NEQ:
		return []*ast.BinaryExpr{be}
	case token.LAND:
		return append(comparisonsIn(be.X), comparisonsIn(be.Y)...)
	}
	return nil
}

// clampedBy reports whether some enclosing guard compares the same two
// operands as the subtraction (matched textually, in either order).
func clampedBy(guards []*ast.BinaryExpr, sub *ast.BinaryExpr) bool {
	x, y := types.ExprString(sub.X), types.ExprString(sub.Y)
	for _, g := range guards {
		gx, gy := types.ExprString(g.X), types.ExprString(g.Y)
		if (gx == x && gy == y) || (gx == y && gy == x) {
			return true
		}
	}
	return false
}
