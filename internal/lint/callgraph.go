// callgraph.go is the whole-module analysis substrate of the
// interprocedural analyzers (detorder, transitive kernelclock,
// interprocedural goryorder). It indexes every function and method
// declaration of the loaded program's build files by its *types.Func,
// resolves call sites to callees, and computes memoized per-function
// effect summaries.
//
// A call resolves in one of two ways, both read off the type checker:
//
//   - statically: the callee object the checker recorded for the call
//     (a function, a qualified function, a method on a concrete
//     receiver, promoted or not) is a module declaration — one callee;
//   - by interface dispatch: the callee is an interface method, and the
//     candidates are the methods of that name on every module type that
//     implements the interface.
//
// Every file is typed — build files, test files, the standard library —
// so a call site in a _test.go file resolves exactly like any other.
// What stays a may-analysis: dispatch reaches every implementer in the
// module, not only the ones the program ever stores in the interface (an
// infeasible chain is suppressible with //lint:ignore and a proof), and
// calls of function values (f := g; f()) resolve to nothing. Standard-
// library and test-file declarations are not indexed: they are not part
// of the model and contribute no effects — acceptable because the
// invariants being checked concern module-local primitives.
package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// FuncInfo is one function or method declaration in the module.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Name is the display name used in diagnostic call chains:
	// "pkg.Func" or "pkg.(Type).Method" with pkg the import path's last
	// element.
	Name string
}

// CallGraph indexes the module's function declarations and memoizes the
// per-function effect summaries.
type CallGraph struct {
	pr    *Program
	funcs map[*types.Func]*FuncInfo
	// impls memoizes interface dispatch per interface method.
	impls map[*types.Func][]*FuncInfo

	clock   map[*FuncInfo]*witness
	visible map[*FuncInfo]*witness
	gory    map[*FuncInfo][]goryEvent
}

// NewCallGraph indexes every build-file declaration of the program.
func NewCallGraph(pr *Program) *CallGraph {
	g := &CallGraph{
		pr:      pr,
		funcs:   map[*types.Func]*FuncInfo{},
		impls:   map[*types.Func][]*FuncInfo{},
		clock:   map[*FuncInfo]*witness{},
		visible: map[*FuncInfo]*witness{},
		gory:    map[*FuncInfo][]goryEvent{},
	}
	for _, pkg := range pr.Packages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.funcs[fn] = &FuncInfo{Pkg: pkg, Decl: fd, Name: displayName(fn)}
				}
			}
		}
	}
	return g
}

func displayName(fn *types.Func) string {
	name := path.Base(fn.Pkg().Path()) + "."
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += "(" + t.(*types.Named).Obj().Name() + ")."
	}
	return name + fn.Name()
}

// Resolve returns the module callees of a call site. static reports a
// statically bound call: exactly one callee, the one that will run.
// Interface dispatch returns every implementer's method; builtins,
// conversions, function values and calls out of the module return
// nothing.
func (g *CallGraph) Resolve(info *types.Info, call *ast.CallExpr) (callees []*FuncInfo, static bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, false
	}
	if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return g.implementers(fn, recv.Type()), false
	}
	if fi := g.funcs[fn]; fi != nil {
		return []*FuncInfo{fi}, true
	}
	return nil, false
}

// calleeFunc returns the declared function or method a call names, nil
// for anything else (builtin, conversion, function value).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation
		fun = ix.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// implementers returns method m's implementations on the module types
// that implement iface, in (package path, type name) order.
func (g *CallGraph) implementers(m *types.Func, iface types.Type) []*FuncInfo {
	if out, ok := g.impls[m]; ok {
		return out
	}
	var out []*FuncInfo
	seen := map[*FuncInfo]bool{}
	for _, pkg := range g.pr.Packages() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(ptr, iface.Underlying().(*types.Interface)) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				if fi := g.funcs[fn.Origin()]; fi != nil && !seen[fi] {
					seen[fi] = true
					out = append(out, fi)
				}
			}
		}
	}
	g.impls[m] = out
	return out
}

// --- effect summaries ------------------------------------------------------

// memoized is the one depth-first walk behind every summary. Recursion
// is cut by handing a function that is still being summarized the zero
// summary: a cycle cannot introduce an effect its members do not
// already carry.
func memoized[T any](memo map[*FuncInfo]T, fi *FuncInfo, compute func() T) T {
	if v, ok := memo[fi]; ok {
		return v
	}
	var zero T
	memo[fi] = zero
	v := compute()
	memo[fi] = v
	return v
}

// witness is the first effect of some class reachable from a function,
// with the call chain that reaches it.
type witness struct {
	// What names the offending construct, e.g. "time.Now", "goroutine",
	// "Push (queue push)".
	What string
	// Concurrency marks goroutine/channel/select witnesses, which are
	// sanctioned inside engine-adjacent packages.
	Concurrency bool
	// Chain is the display-name path from the examined function down to
	// the witness's enclosing function (inclusive).
	Chain []string
}

// reach returns the witness direct finds in fi's own body, else the
// first one reachable through a callee, chain extended by fi.
func (g *CallGraph) reach(memo map[*FuncInfo]*witness, fi *FuncInfo, direct func(*FuncInfo) *witness) *witness {
	return memoized(memo, fi, func() *witness {
		if w := direct(fi); w != nil {
			w.Chain = []string{fi.Name}
			return w
		}
		for _, callee := range g.callSites(fi) {
			if w := g.reach(memo, callee, direct); w != nil {
				return &witness{What: w.What, Concurrency: w.Concurrency, Chain: appendChain(fi.Name, w.Chain)}
			}
		}
		return nil
	})
}

// concurrencySanctioned are the packages whose raw concurrency is
// legitimate infrastructure: the event kernel's PDES workers, the trace
// collector's mutex, the sweep harness's worker pool. Wall-clock and
// math/rand use stays a finding even there.
var concurrencySanctioned = []string{
	"internal/sim", "internal/trace", "internal/harness",
}

// ClockWitness returns the transitive wall-clock/randomness/concurrency
// witness reachable from fi, or nil.
func (g *CallGraph) ClockWitness(fi *FuncInfo) *witness {
	return g.reach(g.clock, fi, func(fi *FuncInfo) *witness {
		sanctioned := pkgPathIn(fi.Pkg.Path, concurrencySanctioned...)
		var w *witness
		scanClockUses(fi.Pkg.Info, fi.Decl.Body, func(_ ast.Node, what string) bool {
			if _, concurrency := concurrencyAdvice[what]; !(concurrency && sanctioned) {
				w = &witness{What: what, Concurrency: concurrency}
			}
			return w == nil
		})
		return w
	})
}

// kernelVisibleFuncs are the call names whose execution order is
// kernel-clock-visible: re-ordering them across a nondeterministic map
// iteration changes traces, schedules or memory images.
var kernelVisibleFuncs = map[string]string{
	// trace.Sink recording — event order lands in the Chrome export.
	"Span": "trace emission", "Add": "trace counter",
	"Gauge": "trace gauge", "Observe": "trace histogram",
	// sim.Kernel scheduling and process control — posting order is the
	// same-cycle dispatch order.
	"At": "event scheduling", "After": "event scheduling",
	"AfterCancel": "event scheduling", "Spawn": "process spawn",
	"SpawnDaemon": "process spawn", "Post": "event posting",
	"Delay": "process delay", "Unpark": "process wakeup",
	// sim.Cond — wake order is delivery order.
	"Signal": "cond signal", "Broadcast": "cond broadcast",
	// A model queue's push and pop order is its delivery order
	// (ircce.Engine.Push advances the queued MPB transfers), whatever
	// primitive the queue waits on.
	"Push": "queue push", "Pop": "queue pop",
	// MPB/LMB stores and flag signals — memory-image and protocol order.
	"WriteMPB": "MPB store", "HostWriteLMB": "LMB store", "WriteLMB": "LMB store",
	"SignalSent": "flag signal", "SignalReady": "flag signal",
	"setSent": "flag signal", "setReady": "flag signal", "FlushWCB": "WCB flush",
}

// VisibleWitness returns the first kernel-clock-visible effect reachable
// from fi — trace emission, event posting/scheduling, MPB/LMB stores or
// flag signals — or nil.
func (g *CallGraph) VisibleWitness(fi *FuncInfo) *witness {
	return g.reach(g.visible, fi, func(fi *FuncInfo) *witness {
		var w *witness
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && w == nil {
				if what, hit := kernelVisibleFuncs[calleeName(call)]; hit {
					w = &witness{What: calleeName(call) + " (" + what + ")"}
				}
			}
			return w == nil
		})
		return w
	})
}

// --- shared traversal helpers ---------------------------------------------

// callSites returns the resolved callees of every call in fi's body, in
// syntactic order, deduplicated.
func (g *CallGraph) callSites(fi *FuncInfo) []*FuncInfo {
	seen := map[*FuncInfo]bool{}
	var out []*FuncInfo
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees, _ := g.Resolve(fi.Pkg.Info, call)
		for _, c := range callees {
			if c != fi && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// chainCap bounds diagnostic chains: deeper escapes print a truncated
// prefix, which still names the entry point and the direction.
const chainCap = 8

func appendChain(head string, rest []string) []string {
	out := make([]string, 0, len(rest)+1)
	out = append(out, head)
	out = append(out, rest...)
	if len(out) > chainCap {
		out = append(out[:chainCap:chainCap], "…")
	}
	return out
}

// FormatChain renders a call chain for a diagnostic message.
func FormatChain(chain []string) string {
	return strings.Join(chain, " → ")
}
