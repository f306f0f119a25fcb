package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetOrderAnalyzer flags map iteration whose order can leak into
// kernel-clock-visible state. Go randomizes map iteration per run, so a
// `for range m` whose body emits traces, posts events, stores to
// MPB/LMB or decides admission produces byte-different reruns — the
// exact failure class the five byte-identity CI gates exist to catch,
// except those gates only see it once a workload happens to populate
// the map with two entries.
//
// Two shapes are reported:
//
//   - early-exit selection: the loop body can `return` or `break`, so
//     WHICH element wins depends on iteration order (the first-fit
//     allocator bug pattern), regardless of what the body calls;
//   - effectful bodies: the body performs — directly or through any
//     call chain the module call graph can reach — a kernel-visible
//     effect (trace emission, event scheduling, MPB/LMB stores, flag
//     signals), so the ORDER of iterations is observable.
//
// The deterministic idioms stay clean by construction: extracting keys
// into a slice and sorting before the effectful loop ranges over a
// slice, not a map; a body that only `delete`s from the map or
// accumulates into locals (sums, appends that are sorted later) has
// neither an early exit nor a reachable effect. Order-insensitive
// bodies the analysis cannot prove carry a //lint:ignore detorder with
// the proof.
//
// Test files are not audited: they are not part of the model, and the
// byte-identity gates cover the test harness dynamically.
func DetOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "detorder",
		Doc:  "no map iteration where order can reach kernel-clock-visible state or pick a winner",
		Applies: func(p string) bool {
			return pkgPathIn(p, modelPackages...) || pkgPathIn(p, enginePackages...)
		},
		Run: runDetOrder,
	}
}

func runDetOrder(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if _, isMap := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					checkMapRange(pass, rs)
				}
			}
			return true
		})
	}
}

// checkMapRange applies the two order-sensitivity triggers to one
// map-range statement.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	cg := pass.CallGraph()
	// Trigger 1: early exit — the chosen iteration depends on order.
	if exit := earlyExit(rs.Body); exit != nil {
		pass.Reportf(rs.For,
			"map iteration with an early exit: which entry wins depends on Go's randomized map order; extract the keys, sort them, and range over the slice (or prove order-insensitivity with //lint:ignore detorder <proof>)")
		return // one report per loop
	}
	// Trigger 2: a kernel-visible effect reachable from the body.
	var reported bool
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if what, hit := kernelVisibleFuncs[name]; hit {
			reported = true
			pass.Reportf(rs.For,
				"map iteration body performs %s via %s: iteration order is randomized per run and lands in kernel-clock-visible state; sort the keys first", what, name)
			return false
		}
		callees, _ := cg.Resolve(pass.Info, call)
		for _, c := range callees {
			if w := cg.VisibleWitness(c); w != nil {
				reported = true
				pass.ReportChain(rs.For, w.Chain,
					"map iteration body reaches %s through %s: iteration order is randomized per run and lands in kernel-clock-visible state; sort the keys first", w.What, FormatChain(w.Chain))
				return false
			}
		}
		return true
	})
}

// earlyExit returns the first statement that can leave the loop before
// the map is exhausted: a return, or a break binding to this loop.
// Breaks inside nested for/switch/select bind tighter and do not count;
// labeled breaks are conservatively counted (they may target this loop
// or one further out — either way an enclosing map range exits early).
func earlyExit(body *ast.BlockStmt) ast.Stmt {
	var found ast.Stmt
	var walk func(s ast.Stmt, breakBindsHere bool)
	walkList := func(list []ast.Stmt, breakBindsHere bool) {
		for _, s := range list {
			if found == nil {
				walk(s, breakBindsHere)
			}
		}
	}
	walk = func(s ast.Stmt, breakBindsHere bool) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			found = s
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && (breakBindsHere || s.Label != nil) {
				found = s
			}
			if s.Tok == token.GOTO {
				found = s // conservative: a goto can leave the loop
			}
		case *ast.BlockStmt:
			walkList(s.List, breakBindsHere)
		case *ast.IfStmt:
			walk(s.Body, breakBindsHere)
			if s.Else != nil {
				walk(s.Else, breakBindsHere)
			}
		case *ast.ForStmt:
			walk(s.Body, false)
		case *ast.RangeStmt:
			walk(s.Body, false)
		case *ast.SwitchStmt:
			walkList(s.Body.List, false)
		case *ast.TypeSwitchStmt:
			walkList(s.Body.List, false)
		case *ast.SelectStmt:
			walkList(s.Body.List, false)
		case *ast.CaseClause:
			walkList(s.Body, false)
		case *ast.CommClause:
			walkList(s.Body, false)
		case *ast.LabeledStmt:
			walk(s.Stmt, breakBindsHere)
		}
	}
	walkList(body.List, true)
	return found
}
