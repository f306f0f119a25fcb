package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// GoryOrderAnalyzer checks the gory-protocol ordering discipline of the
// SCC's non-coherent memory model (paper §3.1, RCCE's "gory" interface):
//
//   - flush-before-flag: after an MPB data write (WriteMPB), the
//     write-combine buffer must be flushed (FlushWCB) before any flag is
//     signalled (SignalSent/SignalReady/setSent/setReady, or a
//     raw WriteMPB of a flag byte). A flag that overtakes combined data
//     publishes a message the receiver cannot yet see.
//   - invalidate-before-read: after waiting on (or consuming) a flag,
//     an MPB data read (ReadMPB) must be preceded by
//     InvalidateMPB, or the L1 may serve stale MPBT lines cached before
//     the peer's write.
//
// The check is a linear, path-insensitive scan over each function body:
// events are matched by callee name in syntactic order, so straight-line
// protocol code — the shape of every gory call site in this repository —
// is checked exactly, while branchy code may need a //lint:ignore with a
// short proof. The runtime MPB consistency checker (scc.Checker, enabled
// with -check) covers the path-sensitive remainder.
//
// The scan is interprocedural: calls into the gory-protocol packages
// (internal/{rcce,ircce,vscc,scc} and the repository root) splice the
// callee's effect summary — its ordered sequence of writes, flushes,
// signals, waits, invalidates and reads, computed bottom-up over the
// call graph — into the caller's state machine. A helper that signals
// while the caller's data sits unflushed, or a callee that leaves an
// unflushed write behind for the caller to signal over, is reported at
// the call boundary with the offending call chain. Only statically
// resolved calls are spliced (precision over recall: an interface
// dispatch contributes nothing rather than a wrong sequence);
// violations wholly inside one callee are that callee's own findings
// and are not re-reported at call sites.
func GoryOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goryorder",
		Doc:  "gory-protocol call sites must flush before signalling and invalidate after waiting, across call boundaries",
		Applies: func(p string) bool {
			return pkgPathIn(p, goryPackages...) || !strings.Contains(p, "/")
		},
		Run: runGoryOrder,
	}
}

// goryEvent kinds, in the order the state machine consumes them.
const (
	evDataWrite = iota
	evFlagWrite // a data write whose target is a flag byte; see isFlagWrite
	evFlush
	evInval
	evDataRead
	evSignal
	evWait
)

// goryPrimitives are the event classes, matched by callee name.
var goryPrimitives = map[string]int{
	"FlushWCB": evFlush,
	// Put flushes the WCB internally before returning (rank.go), so at
	// the call site it leaves no combined data behind — including any
	// earlier unflushed WriteMPB.
	"Put": evFlush, "InvalidateMPB": evInval,
	// Get invalidates internally before reading, so at the call site it
	// behaves like an invalidate (the L1 holds only fresh lines
	// afterwards).
	"Get": evInval, "WriteMPB": evDataWrite, "ReadMPB": evDataRead,
	"SignalSent": evSignal, "SignalReady": evSignal,
	"setSent": evSignal, "setReady": evSignal,
	"waitSent": evWait, "waitReady": evWait, "waitClearFlag": evWait, "WaitFlag": evWait,
	"ClearSent": evWait, "ClearReady": evWait,
	"PeekSent": evWait, "PeekReady": evWait, "PeekFlagByte": evWait,
}

// BannedCallAnalyzer reports the calls of the bannedCalls name table.
func BannedCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "bannedcall",
		Doc:  "callees banned by package: un-budgeted inter-device waits, raw flag-byte addressing outside protocol extensions, numeric flag kinds",
		Run:  runBannedCall,
	}
}

// flagAddrFuncs are RCCE's raw flag-addressing helpers; the first
// argument of each is a flag kind. The MPB flag arrays are RCCE-internal
// layout, exported only so the protocol extensions can build their
// value-encoded counter protocols on top.
var flagAddrFuncs = []string{"FlagByteAt", "PeekFlagByte"}

// bannedCalls is the name table behind BannedCallAnalyzer. A row matches
// a call of one of its callees — a method or bare call, or a call
// qualified by a package whose path ends in owner — made in a package
// in reports true for; in _test.go files only when tests is set; and,
// with numericKind, only when the first argument (the flag kind) is a
// literal. The message takes the callee name, then that literal.
var bannedCalls = []struct {
	callees     []string
	owner       string
	in          func(pkgPath string) bool
	tests       bool
	numericKind bool
	msg         string
}{
	// Every blocking wait on remote progress in the inter-device layers
	// carries a cycle budget (DESIGN.md §8), so a lost SIF packet, a
	// stalled host task or a vanished flag write becomes a bounded,
	// retryable timeout instead of a silent deadlock. Tests drive raw
	// protocols on fault-free fabrics, where an unbounded wait is fine.
	{
		callees: []string{"WaitFlag"}, owner: "scc",
		in: func(p string) bool { return pkgPathIn(p, "internal/vscc", "internal/ircce") },
		msg: "un-budgeted engaged wait %s: a lost packet or stalled host deadlocks here forever; " +
			"use WaitFlagFor with a cycle budget (0 = no bound when faults are off)",
	},
	// Outside the protocol extensions, flag traffic goes through the
	// rcce hooks, which charge the right costs and keep the flag-vs-data
	// traffic split honest.
	{
		callees: flagAddrFuncs, owner: "rcce", tests: true,
		in:  func(p string) bool { return !pkgPathIn(p, goryPackages...) },
		msg: "raw flag-byte addressing (%s) outside a protocol extension: use the rcce hooks (SignalSent/SignalReady/Await*/Peek*/Clear*) instead",
	},
	// A bare numeric kind silently breaks when the flag-area layout
	// changes.
	{
		callees: flagAddrFuncs, owner: "rcce", tests: true, numericKind: true,
		in:  func(string) bool { return true },
		msg: "numeric flag kind %[2]s in %[1]s: use the named rcce.Flag* constants (FlagSent/FlagReady/FlagGrant/FlagDMAC)",
	},
}

func runBannedCall(pass *Pass) {
	for _, f := range pass.Files {
		test := pass.IsTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			var kind *ast.BasicLit
			if len(call.Args) > 0 {
				kind, _ = call.Args[0].(*ast.BasicLit)
			}
			for _, row := range bannedCalls {
				if !slices.Contains(row.callees, name) || test && !row.tests || !row.in(pass.Pkg.Path) ||
					row.numericKind && kind == nil || !calledFrom(pass.Info, call, row.owner) {
					continue
				}
				if row.numericKind {
					pass.Reportf(kind.Pos(), row.msg, name, kind.Value)
				} else {
					pass.Reportf(call.Pos(), row.msg, name)
				}
			}
			return true
		})
	}
}

// calledFrom filters out same-named functions of other packages: a
// package-qualified call counts only when the qualifier's path ends in
// owner; bare calls and method calls on a value always count.
func calledFrom(info *types.Info, call *ast.CallExpr, owner string) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return hasSuffixPath(pn.Imported().Path(), owner)
			}
		}
	}
	return true
}

// goryEvent is one abstract protocol action in a function's linearized
// event stream: a direct primitive call, or an action spliced in from a
// callee's summary.
type goryEvent struct {
	kind int
	// name is the primitive's callee name, for messages.
	name string
	// chain names the call path for spliced events (outermost callee
	// first); nil for direct primitive calls.
	chain []string
	// site is the call in the body being checked that the event came
	// from — where a violation is reported, and how a setter and a
	// violator spliced from the SAME call are recognized as callee-
	// internal (the callee's own scan reports those).
	site token.Pos
}

// String names a (possibly spliced) event for a diagnostic.
func (ev goryEvent) String() string {
	if len(ev.chain) > 0 {
		return ev.name + " via " + FormatChain(ev.chain)
	}
	return ev.name
}

// gorySummaryScope are the packages whose functions get gory-effect
// summaries; everything else (sim, trace, host plumbing, stats, cmd)
// never touches the gory primitives and summarizes to nothing. The
// scope buys precision too: generic method names the event classes
// share with unrelated code (Get on a cache, Put on a pool) cannot
// smuggle phantom events in from outside the protocol layers.
func inGorySummaryScope(pkgPath string) bool {
	return pkgPathIn(pkgPath, goryPackages...) ||
		pkgPathIn(pkgPath, "internal/scc") ||
		!strings.Contains(pkgPath, "/")
}

// goryEventCap bounds summary sequences; protocol bodies are short, and
// a truncated tail only costs recall, never precision.
const goryEventCap = 64

// goryStream linearizes one function body: it calls emit, in syntactic
// order, for every primitive call and for every event of the summary of
// every statically resolved callee, each stamped with the call's site.
func (g *CallGraph) goryStream(info *types.Info, fd *ast.FuncDecl, emit func(goryEvent)) {
	flagOffIdents := collectFlagOffsetIdents(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if kind, ok := goryPrimitives[name]; ok {
			if kind == evDataWrite && isFlagWrite(call, flagOffIdents) {
				kind = evFlagWrite
			}
			emit(goryEvent{kind: kind, name: name, site: call.Pos()})
		} else if callees, static := g.Resolve(info, call); static {
			for _, ev := range g.GorySummary(callees[0]) {
				ev.site = call.Pos()
				emit(ev)
			}
		}
		return true
	})
}

// GorySummary returns fi's ordered gory-effect sequence, splicing
// statically resolved callees bottom-up.
func (g *CallGraph) GorySummary(fi *FuncInfo) []goryEvent {
	if !inGorySummaryScope(fi.Pkg.Path) {
		return nil
	}
	return memoized(g.gory, fi, func() (out []goryEvent) {
		g.goryStream(fi.Pkg.Info, fi.Decl, func(ev goryEvent) {
			if len(out) < goryEventCap {
				out = append(out, goryEvent{kind: ev.kind, name: ev.name, chain: appendChain(fi.Name, ev.chain)})
			}
		})
		return out
	})
}

func runGoryOrder(pass *Pass) {
	pass.eachFunc(func(fd *ast.FuncDecl) { checkGoryFunc(pass, fd) })
}

const (
	unflushed = " before FlushWCB of the preceding MPB data write"
	flushRule = " (paper §3.1: flush write-combined data before signalling)"
	invalRule = " without InvalidateMPB: the L1 may serve stale MPBT lines (paper §3.1: invalidate before the remote get)"
)

// checkGoryFunc runs the order state machine over one function's
// linearized event stream. A violation whose setter and violator came
// from the same call site is callee-internal and skipped here — the
// callee's own scan reports it.
func checkGoryFunc(pass *Pass, fd *ast.FuncDecl) {
	var dirty *goryEvent // an MPB data write sitting unflushed in the WCB
	var await *goryEvent // a flag wait happened with no InvalidateMPB since

	// violate reports ev against the state bit set left behind. Inside
	// one function the message is bare; across a call boundary it names
	// both events with their chains and carries the violator's chain
	// (else the setter's) as data. An empty subject is the event itself.
	violate := func(ev goryEvent, set *goryEvent, subject, rest, rule string) {
		violator, setter, chain := "", "", ev.chain
		if len(ev.chain) > 0 || len(set.chain) > 0 {
			violator, setter = " ("+ev.String()+")", " ("+set.String()+")"
		}
		if chain == nil {
			chain = set.chain
		}
		if subject == "" {
			subject, violator = ev.String(), ""
		}
		pass.ReportChain(ev.site, chain, "%s", subject+violator+rest+setter+rule)
	}

	pass.CallGraph().goryStream(pass.Info, fd, func(ev goryEvent) {
		switch ev.kind {
		case evFlush:
			dirty = nil
		case evInval:
			await = nil
		case evDataWrite:
			dirty = &ev
		case evFlagWrite:
			// A raw flag-byte store is a signal: combined data must
			// already be flushed. The flag byte itself then sits in the
			// WCB until the next flush; it is not data, so dirty stays.
			if dirty != nil && dirty.site != ev.site {
				violate(ev, dirty, "flag byte written", unflushed, flushRule)
			}
		case evSignal:
			if dirty != nil && dirty.site != ev.site {
				violate(ev, dirty, "", unflushed, flushRule)
				dirty = nil // one report per unflushed write
			}
		case evDataRead:
			if await != nil && await.site != ev.site {
				violate(ev, await, "MPB read", " after a flag wait", invalRule)
				await = nil // one report per missing invalidate
			}
		case evWait:
			await = &ev
		}
	})
}

// collectFlagOffsetIdents finds local identifiers assigned from
// FlagByteAt-derived expressions, so that WriteMPB(dev, tile, base+sentOff)
// is recognized as a flag write even when the offset was hoisted.
func collectFlagOffsetIdents(fd *ast.FuncDecl) map[string]bool {
	idents := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !exprMentionsFlagOffset(rhs, nil) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				idents[id.Name] = true
			}
		}
		return true
	})
	return idents
}

// isFlagWrite reports whether a WriteMPB-class call targets a flag byte:
// an argument mentions FlagByteAt, a *FlagBase constant, or
// a hoisted flag-offset identifier.
func isFlagWrite(call *ast.CallExpr, flagOffIdents map[string]bool) bool {
	for _, arg := range call.Args {
		if exprMentionsFlagOffset(arg, flagOffIdents) {
			return true
		}
	}
	return false
}

func exprMentionsFlagOffset(e ast.Expr, flagOffIdents map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			found = calleeName(n) == "FlagByteAt"
		case *ast.Ident:
			found = strings.HasSuffix(n.Name, "FlagBase") || strings.HasSuffix(n.Name, "flagBase") || flagOffIdents[n.Name]
		}
		return !found
	})
	return found
}
