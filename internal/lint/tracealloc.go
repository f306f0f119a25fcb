package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceAllocAnalyzer protects the zero-alloc disabled trace path (PR 2):
// instrumented model code calls the sink unconditionally and relies on
// the nil-receiver no-op, which only stays allocation-free if the call
// site does not build its span/counter name first. A fmt.Sprintf or
// dynamic string concatenation in an argument allocates before the nil
// check runs — on every event, tracing on or off.
//
// The approved idiom (trace.Sink.Enabled docs) hoists label building
// behind an explicit guard, which this analyzer recognizes in two forms:
//
//	if sink.Enabled() { sink.Span(tr, fmt.Sprintf(...), a, b) }
//
//	if !sink.Enabled() { return }      // or: if sink == nil { return }
//	... sink.Span(tr, fmt.Sprintf(...), a, b)
//
// Precomputed names (fields set once in Instrument) and constant-folded
// concatenations are always fine.
func TraceAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "tracealloc",
		Doc:  "no dynamic span/counter name building at unguarded instrumentation call sites",
		Run:  runTraceAlloc,
	}
}

// sinkRecordMethods are the trace.Sink recording entry points that take
// event names on the hot path. Track registration and exporters run at
// setup/report time and may allocate freely.
var sinkRecordMethods = map[string]bool{
	"Span": true, "Add": true, "Gauge": true, "Observe": true,
}

// runTraceAlloc walks every body knowing whether the enclosing context
// proved the sink enabled (Enabled() or non-nil).
func runTraceAlloc(pass *Pass) {
	inside := func(guarded bool, cond ast.Expr) bool { return guarded || isEnabledCond(cond) }
	// An early-return disabled guard blesses the rest of the list.
	after := func(guarded bool, st *ast.IfStmt) bool {
		return guarded || isDisabledCond(st.Cond) && blockExits(st.Body)
	}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		walkGuarded(fd.Body.List, false, inside, after, func(guarded bool, call *ast.CallExpr) {
			if sel, ok := call.Fun.(*ast.SelectorExpr); guarded || !ok || !sinkRecordMethods[sel.Sel.Name] {
				return
			}
			for _, arg := range call.Args {
				if bad, what := dynamicStringBuild(pass, arg); bad {
					pass.Reportf(arg.Pos(), "%s builds a trace label with %s at an unguarded call site: this allocates even when tracing is disabled; hoist the name or guard with sink.Enabled()", calleeName(call), what)
					break
				}
			}
		})
	})
}

// isEnabledCond reports whether an if-condition proves the sink enabled:
// it contains an Enabled() call or an x != nil comparison, not negated.
func isEnabledCond(cond ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.CallExpr:
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" {
			return true
		}
	case *ast.BinaryExpr:
		if c.Op == token.NEQ && (isNil(c.X) || isNil(c.Y)) {
			return true
		}
		if c.Op == token.LAND {
			return isEnabledCond(c.X) || isEnabledCond(c.Y)
		}
	}
	return false
}

// isDisabledCond reports whether an if-condition proves the sink
// disabled: !x.Enabled() or x == nil.
func isDisabledCond(cond ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		return c.Op == token.NOT && isEnabledCond(c.X)
	case *ast.BinaryExpr:
		return c.Op == token.EQL && (isNil(c.X) || isNil(c.Y))
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// blockExits reports whether a block unconditionally leaves the
// enclosing statement list (return, continue, break, panic).
func blockExits(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			return calleeName(call) == "panic"
		}
	}
	return false
}

// dynamicStringBuild reports whether an argument expression builds a
// string at runtime: a fmt.Sprintf call, or a string + concatenation the
// type checker did not fold to a constant (numeric + in an argument —
// sizes, offsets — does not allocate).
func dynamicStringBuild(pass *Pass, e ast.Expr) (bad bool, what string) {
	switch e := e.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(pass.Info, e); fn != nil && fn.FullName() == "fmt.Sprintf" {
			return true, "fmt.Sprintf"
		}
	case *ast.BinaryExpr:
		tv := pass.Info.Types[e]
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && e.Op == token.ADD &&
			b.Info()&types.IsString != 0 && tv.Value == nil {
			return true, "string concatenation"
		}
	}
	return false, ""
}
