// callgraph.go turns the per-function AST walks of the original rule
// suite into a whole-module analysis substrate. It indexes every
// function and method declaration of the loaded program, resolves call
// sites to candidate callees, and computes memoized per-function effect
// summaries that the interprocedural analyzers (detorder, transitive
// kernelclock, interprocedural goryorder) consume.
//
// Resolution precision, from strongest to weakest:
//
//   - bare calls resolve to the caller's package (f() → pkg.f),
//   - package-qualified calls resolve through the file's import table
//     to module-local packages (rcce.Barrier → internal/rcce.Barrier),
//   - method calls with type information resolve to the concrete
//     receiver's method (r.Send with r *rcce.Rank → (*Rank).Send),
//   - method calls without a concrete receiver — interface dispatch,
//     or call sites in test files, which are parsed but not
//     type-checked — fall back to the module-wide method set: every
//     method with the same name and compatible arity is a candidate.
//
// The fallback over-approximates: it may connect a call to methods the
// dynamic dispatch can never reach. The effect analyses are therefore
// may-analyses (a reported escape might be infeasible, suppressible
// with //lint:ignore and a proof), never must-analyses. Function-value
// calls (f := g; f()) and calls into the standard library (loaded as
// empty stubs) resolve to nothing and contribute no effects — the
// documented soundness gap, acceptable because the invariants being
// checked concern module-local primitives.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// Bare is the unqualified function or method name.
	Bare string
	// Recv is the receiver's type name ("" for plain functions).
	Recv string
	// arity is the declared parameter count; variadic counts the slice
	// as one.
	arity    int
	variadic bool
	// imports is the file's local-name → import-path table, for
	// resolving qualified calls inside this function's body.
	imports map[string]string
	// testFile marks declarations in _test.go files; they are excluded
	// from the index (no type info, not part of the model) but kept on
	// the FuncInfo for clarity at call sites that construct one.
	testFile bool
}

// CallGraph indexes the module's function declarations and memoizes the
// per-function effect summaries.
type CallGraph struct {
	pr *Program

	// funcs: package path → bare name → declaration.
	funcs map[string]map[string]*FuncInfo
	// methods: package path → receiver type name → method name → decl.
	methods map[string]map[string]map[string]*FuncInfo
	// byMethod: bare method name → all module methods with that name,
	// sorted for deterministic candidate order (the interface-dispatch
	// over-approximation).
	byMethod map[string][]*FuncInfo

	clockMemo map[*FuncInfo]*clockWitness
	clockPath map[*FuncInfo]bool // DFS on-stack marker
	visMemo   map[*FuncInfo]*visibleWitness
	visPath   map[*FuncInfo]bool
	goryMemo  map[*FuncInfo][]sumEvent
	goryPath  map[*FuncInfo]bool
}

// NewCallGraph indexes every non-test declaration of the program.
func NewCallGraph(pr *Program) *CallGraph {
	g := &CallGraph{
		pr:        pr,
		funcs:     map[string]map[string]*FuncInfo{},
		methods:   map[string]map[string]map[string]*FuncInfo{},
		byMethod:  map[string][]*FuncInfo{},
		clockMemo: map[*FuncInfo]*clockWitness{},
		clockPath: map[*FuncInfo]bool{},
		visMemo:   map[*FuncInfo]*visibleWitness{},
		visPath:   map[*FuncInfo]bool{},
		goryMemo:  map[*FuncInfo][]sumEvent{},
		goryPath:  map[*FuncInfo]bool{},
	}
	for _, pkg := range pr.Packages() {
		for _, f := range pkg.Files {
			imports := importTable(f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				g.index(pkg, fd, imports)
			}
		}
	}
	for name := range g.byMethod {
		ms := g.byMethod[name]
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].Pkg.Path != ms[j].Pkg.Path {
				return ms[i].Pkg.Path < ms[j].Pkg.Path
			}
			return ms[i].Name < ms[j].Name
		})
	}
	return g
}

func (g *CallGraph) index(pkg *Package, fd *ast.FuncDecl, imports map[string]string) {
	fi := &FuncInfo{
		Pkg:     pkg,
		Decl:    fd,
		Bare:    fd.Name.Name,
		imports: imports,
	}
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			n := len(fld.Names)
			if n == 0 {
				n = 1
			}
			fi.arity += n
			if _, ok := fld.Type.(*ast.Ellipsis); ok {
				fi.variadic = true
			}
		}
	}
	last := pkg.Path
	if i := strings.LastIndexByte(last, '/'); i >= 0 {
		last = last[i+1:]
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		fi.Recv = recvTypeName(fd.Recv.List[0].Type)
		fi.Name = last + ".(" + fi.Recv + ")." + fi.Bare
		byType := g.methods[pkg.Path]
		if byType == nil {
			byType = map[string]map[string]*FuncInfo{}
			g.methods[pkg.Path] = byType
		}
		byName := byType[fi.Recv]
		if byName == nil {
			byName = map[string]*FuncInfo{}
			byType[fi.Recv] = byName
		}
		byName[fi.Bare] = fi
		g.byMethod[fi.Bare] = append(g.byMethod[fi.Bare], fi)
	} else {
		fi.Name = last + "." + fi.Bare
		byName := g.funcs[pkg.Path]
		if byName == nil {
			byName = map[string]*FuncInfo{}
			g.funcs[pkg.Path] = byName
		}
		byName[fi.Bare] = fi
	}
}

// recvTypeName unwraps a receiver type expression to its base name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// builtinFuncs never resolve to module declarations and never carry
// effects of their own.
var builtinFuncs = map[string]bool{
	"append": true, "cap": true, "clear": true, "close": true,
	"complex": true, "copy": true, "delete": true, "imag": true,
	"len": true, "make": true, "max": true, "min": true, "new": true,
	"panic": true, "print": true, "println": true, "real": true,
	"recover": true,
}

// Resolve returns the candidate callees of a call site in callerPkg,
// reading the surrounding file's import table from imports. The result
// is empty for builtins, stdlib calls, and function values; it has one
// element for precise resolutions and several for the interface/
// test-file name-and-arity fallback. unique reports whether the
// resolution was precise (one candidate found by a non-fallback path).
func (g *CallGraph) Resolve(callerPkg *Package, imports map[string]string, call *ast.CallExpr) (callees []*FuncInfo, unique bool) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if builtinFuncs[fn.Name] {
			return nil, false
		}
		// Conversions to local types parse as calls; a types.Info hit on
		// the Ident that is a type name rules them out.
		if callerPkg.Info != nil {
			if obj := callerPkg.Info.Uses[fn]; obj != nil {
				if _, isType := obj.(*types.TypeName); isType {
					return nil, false
				}
				if _, isVar := obj.(*types.Var); isVar {
					return nil, false // function value: unresolved
				}
			}
		}
		if fi := g.funcs[callerPkg.Path][fn.Name]; fi != nil {
			return []*FuncInfo{fi}, true
		}
		return nil, false
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if path, isImport := imports[id.Name]; isImport {
				// Qualified call — but only if the identifier is not
				// shadowed by a local, which types.Info can tell us.
				shadowed := false
				if callerPkg.Info != nil {
					if obj := callerPkg.Info.Uses[id]; obj != nil {
						_, isPkg := obj.(*types.PkgName)
						shadowed = !isPkg
					}
				}
				if !shadowed {
					if fi := g.funcs[path][fn.Sel.Name]; fi != nil {
						return []*FuncInfo{fi}, true
					}
					return nil, false // stdlib or unknown package
				}
			}
		}
		// Method call. Precise when type information names a concrete
		// module receiver.
		if callerPkg.Info != nil {
			if sel, ok := callerPkg.Info.Selections[fn]; ok {
				if fi := g.methodBySelection(sel, fn.Sel.Name); fi != nil {
					return []*FuncInfo{fi}, true
				}
				if !isInterfaceRecv(sel) {
					// Concrete receiver with no module method: stdlib
					// stub or embedded stub — nothing to resolve, and
					// the fallback would only add name-collision noise.
					return nil, false
				}
			}
		}
		// Interface dispatch or an untyped (test-file) call site: every
		// module method with this name and a compatible arity.
		return g.methodCandidates(fn.Sel.Name, len(call.Args)), false
	}
	return nil, false
}

// methodBySelection resolves a concrete method selection to its module
// declaration, unwrapping pointers and following the promoted-field
// path's final receiver.
func (g *CallGraph) methodBySelection(sel *types.Selection, name string) *FuncInfo {
	if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
		return nil
	}
	obj := sel.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return g.methods[obj.Pkg().Path()][named.Obj().Name()][name]
}

// isInterfaceRecv reports whether a selection dispatches through an
// interface.
func isInterfaceRecv(sel *types.Selection) bool {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// methodCandidates returns every module method with the given name that
// could accept nargs arguments.
func (g *CallGraph) methodCandidates(name string, nargs int) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range g.byMethod[name] {
		if fi.arity == nargs || (fi.variadic && nargs >= fi.arity-1) {
			out = append(out, fi)
		}
	}
	return out
}

// --- transitive wall-clock / concurrency witnesses -----------------------

// clockWitness is the first wall-clock, randomness or raw-concurrency
// use reachable from a function, with the call chain that reaches it.
type clockWitness struct {
	// What is the offending construct, e.g. "time.Now", "math/rand
	// import", "goroutine", "channel receive".
	What string
	// Concurrency marks goroutine/channel/select/sync witnesses, which
	// are sanctioned inside engine-adjacent packages.
	Concurrency bool
	// Chain is the display-name path from the examined function down to
	// the witness's enclosing function (inclusive).
	Chain []string
}

// concurrencySanctioned are the packages whose raw concurrency is
// legitimate infrastructure: the event kernel's PDES workers, the trace
// collector's mutex, the sweep harness's worker pool. Wall-clock and
// math/rand use stays a finding even there.
var concurrencySanctioned = []string{
	"internal/sim", "internal/trace", "internal/harness",
}

// ClockWitness returns the transitive wall-clock/randomness/concurrency
// witness reachable from fi, or nil. Results are memoized; recursion is
// cut by treating in-progress functions as witness-free (a cycle cannot
// introduce an effect its members do not already carry).
func (g *CallGraph) ClockWitness(fi *FuncInfo) *clockWitness {
	if w, ok := g.clockMemo[fi]; ok {
		return w
	}
	if g.clockPath[fi] {
		return nil
	}
	g.clockPath[fi] = true
	defer delete(g.clockPath, fi)

	w := g.directClockUse(fi)
	if w == nil {
		for _, edge := range g.callSites(fi) {
			cw := g.ClockWitness(edge)
			if cw == nil {
				continue
			}
			w = &clockWitness{
				What:        cw.What,
				Concurrency: cw.Concurrency,
				Chain:       appendChain(fi.Name, cw.Chain),
			}
			break
		}
	}
	g.clockMemo[fi] = w
	return w
}

// directClockUse scans one function body for wall-clock, math/rand and
// raw-concurrency constructs, honoring the concurrency sanction of the
// engine-adjacent packages.
func (g *CallGraph) directClockUse(fi *FuncInfo) *clockWitness {
	sanctioned := pkgPathIn(fi.Pkg.Path, concurrencySanctioned...)
	var w *clockWitness
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if w != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				switch fi.imports[id.Name] {
				case "time":
					if forbiddenTimeFuncs[n.Sel.Name] {
						w = &clockWitness{What: "time." + n.Sel.Name}
					}
				case "math/rand", "math/rand/v2":
					w = &clockWitness{What: "math/rand." + n.Sel.Name}
				}
			}
		case *ast.GoStmt:
			if !sanctioned {
				w = &clockWitness{What: "goroutine", Concurrency: true}
			}
		case *ast.SelectStmt:
			if !sanctioned {
				w = &clockWitness{What: "select", Concurrency: true}
			}
		case *ast.SendStmt:
			if !sanctioned {
				w = &clockWitness{What: "channel send", Concurrency: true}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !sanctioned {
				w = &clockWitness{What: "channel receive", Concurrency: true}
			}
		}
		return true
	})
	if w != nil {
		w.Chain = []string{fi.Name}
	}
	return w
}

// --- kernel-visible effect reachability (detorder) ------------------------

// visibleWitness names the first kernel-clock-visible effect reachable
// from a function: trace emission, event posting/scheduling, MPB/LMB
// stores, or flag signals.
type visibleWitness struct {
	What  string
	Chain []string
}

// kernelVisibleFuncs are the call names whose execution order is
// kernel-clock-visible: re-ordering them across a nondeterministic map
// iteration changes traces, schedules or memory images.
var kernelVisibleFuncs = map[string]string{
	// trace.Sink recording — event order lands in the Chrome export.
	"Span": "trace emission", "Instant": "trace emission",
	"Add": "trace counter", "Gauge": "trace gauge", "Observe": "trace histogram",
	// sim.Kernel scheduling and process control — posting order is the
	// same-cycle dispatch order.
	"At": "event scheduling", "After": "event scheduling",
	"AfterCancel": "event scheduling", "Spawn": "process spawn",
	"SpawnDaemon": "process spawn", "Post": "event posting",
	"Delay": "process delay", "Unpark": "process wakeup",
	// sim.Cond / sim.Queue — wake order is delivery order.
	"Signal": "cond signal", "Broadcast": "cond broadcast",
	"Push": "queue push", "Pop": "queue pop",
	// MPB/LMB stores and flag signals — memory-image and protocol order.
	"WriteMPB": "MPB store", "WriteV": "MPB store",
	"HostWriteLMB": "LMB store", "WriteLMB": "LMB store",
	"SignalSent": "flag signal", "SignalReady": "flag signal",
	"setSent": "flag signal", "setReady": "flag signal",
	"FlagSet": "flag signal", "FlushWCB": "WCB flush",
}

// VisibleWitness returns the first kernel-visible effect reachable from
// fi, or nil. Memoized like ClockWitness.
func (g *CallGraph) VisibleWitness(fi *FuncInfo) *visibleWitness {
	if w, ok := g.visMemo[fi]; ok {
		return w
	}
	if g.visPath[fi] {
		return nil
	}
	g.visPath[fi] = true
	defer delete(g.visPath, fi)

	var w *visibleWitness
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if w != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what, hit := kernelVisibleFuncs[calleeName(call)]; hit {
			w = &visibleWitness{What: calleeName(call) + " (" + what + ")", Chain: []string{fi.Name}}
			return false
		}
		return true
	})
	if w == nil {
		for _, edge := range g.callSites(fi) {
			vw := g.VisibleWitness(edge)
			if vw == nil {
				continue
			}
			w = &visibleWitness{What: vw.What, Chain: appendChain(fi.Name, vw.Chain)}
			break
		}
	}
	g.visMemo[fi] = w
	return w
}

// --- shared traversal helpers ---------------------------------------------

// callSites returns the resolved callees of every call in fi's body, in
// syntactic order, deduplicated. Interface-dispatch fallbacks include
// every name-and-arity candidate (the over-approximation).
func (g *CallGraph) callSites(fi *FuncInfo) []*FuncInfo {
	seen := map[*FuncInfo]bool{}
	var out []*FuncInfo
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees, _ := g.Resolve(fi.Pkg, fi.imports, call)
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
