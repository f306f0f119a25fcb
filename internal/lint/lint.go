// Package lint is the project-specific static-analysis suite behind
// cmd/vsccvet. It turns the paper's non-coherent-memory programming
// discipline (explicit InvalidateMPB / FlushWCB ordering around flag
// signals, §3–4) and this repository's own invariants (kernel-clock-only
// time, seeded determinism, zero-alloc disabled trace paths) into
// machine-checked rules.
//
// The driver is stdlib-only: packages load through go/parser and are
// fully type-checked by go/types, the standard library and the test
// files included (see load.go), so analyzers read types wherever a name
// alone would be ambiguous. Each Analyzer reports file:line diagnostics
// carrying a rule ID; a finding is suppressed by a
//
//	//lint:ignore <rule> <reason>
//
// comment on the reported line or the line directly above it. The reason
// is mandatory — a suppression without one is itself a diagnostic.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Rule     string
	Position token.Position
	Message  string
	// Chain is the call chain reaching the offending construct, for
	// interprocedural findings (outermost first). Empty for local ones.
	Chain []string
}

// String formats a diagnostic as path:line:col: rule: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Rule, d.Message)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Prog is the whole loaded program, for interprocedural analyzers
	// that need the module-wide call graph.
	Prog *Program
	// Files is what the analyzer walks: build files plus test files.
	Files []*ast.File
	// Info is the type information of every node in Files.
	Info *types.Info

	report func(pos token.Pos, msg string, chain []string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...), nil)
}

// ReportChain records a diagnostic carrying the call chain that reaches
// the offending construct; the chain also lands in the -json output.
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...), chain)
}

// CallGraph returns the module-wide call graph, built lazily on first
// use and shared by every interprocedural analyzer of the run.
func (p *Pass) CallGraph() *CallGraph { return p.Prog.CallGraph() }

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// eachFunc calls fn for every function declaration with a body, build
// and test files alike.
func (p *Pass) eachFunc(fn func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// Analyzer is one vet rule.
type Analyzer struct {
	// Name is the rule ID used in diagnostics and //lint:ignore comments.
	Name string
	// Doc is a one-line description shown by vsccvet -rules.
	Doc string
	// Applies filters packages by import path; nil means every package.
	Applies func(pkgPath string) bool
	// Run reports the rule's findings for one package.
	Run func(*Pass)
}

// RunPackage applies the analyzers (honoring Applies) to one package.
// Suppressions that cover no finding of any rule that ran are reported
// as diagnostics themselves — a stale //lint:ignore hides future bugs.
func RunPackage(pr *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	sup := collectSuppressions(pr.Fset, pkg)
	diags = append(diags, sup.malformed...)
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		rule := a.Name
		pass := &Pass{
			Fset:  pr.Fset,
			Pkg:   pkg,
			Prog:  pr,
			Files: pkg.AllFiles(),
			Info:  pkg.Info,
			report: func(pos token.Pos, msg string, chain []string) {
				position := pr.Fset.Position(pos)
				if e := sup.covering(rule, position); e != nil {
					e.used = true
					return
				}
				diags = append(diags, Diagnostic{Rule: rule, Position: position, Message: msg, Chain: chain})
			},
		}
		a.Run(pass)
	}
	diags = append(diags, sup.unused(ran)...)
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Position.Filename, b.Position.Filename),
			a.Position.Line-b.Position.Line, a.Position.Column-b.Position.Column, strings.Compare(a.Rule, b.Rule))
	})
}

// supEntry is one //lint:ignore comment: its position, the rules it
// names, and whether it has suppressed any finding this run.
type supEntry struct {
	pos   token.Position
	rules []string
	used  bool
}

// suppressions indexes //lint:ignore comments by (file, line).
type suppressions struct {
	byLine    map[token.Position][]*supEntry // keyed by Filename and Line only
	entries   []*supEntry                    // in scan order, for the unused report
	malformed []Diagnostic
}

const ignorePrefix = "//lint:ignore"

// collectSuppressions scans every comment of the package.
func collectSuppressions(fset *token.FileSet, pkg *Package) *suppressions {
	s := &suppressions{byLine: map[token.Position][]*supEntry{}}
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Rule:     "lint",
						Position: pos,
						Message:  "malformed suppression: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				e := &supEntry{pos: pos, rules: strings.Split(fields[0], ",")}
				line := token.Position{Filename: pos.Filename, Line: pos.Line}
				s.byLine[line] = append(s.byLine[line], e)
				s.entries = append(s.entries, e)
			}
		}
	}
	return s
}

// covering returns the suppression of rule on pos's line or the line
// directly above, nil if there is none.
func (s *suppressions) covering(rule string, pos token.Position) *supEntry {
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, e := range s.byLine[token.Position{Filename: pos.Filename, Line: l}] {
			if slices.Contains(e.rules, rule) || slices.Contains(e.rules, "all") {
				return e
			}
		}
	}
	return nil
}

// unused reports the suppression comments that covered no finding. A
// comment is only reportable when every rule it names actually ran on
// this package (ran holds the Applies-filtered analyzer names) — a
// suppression for a rule outside this run might be load-bearing for a
// different tool or invocation. "all" counts as ran when any rule did.
func (s *suppressions) unused(ran map[string]bool) []Diagnostic {
	ran["all"] = len(ran) > 0
	var out []Diagnostic
	for _, e := range s.entries {
		if e.used || slices.ContainsFunc(e.rules, func(r string) bool { return !ran[r] }) {
			continue
		}
		out = append(out, Diagnostic{
			Rule:     "lint",
			Position: e.pos,
			Message: fmt.Sprintf("unused suppression for %s: no finding on this or the next line; delete the stale //lint:ignore",
				strings.Join(e.rules, ",")),
		})
	}
	return out
}

// --- shared analyzer helpers ---------------------------------------------

// pkgObject returns the package-level object id refers to — through a
// package qualifier, a dot import or from inside the package — or nil:
// a method, field or local of the same name never matches.
func pkgObject(info *types.Info, id *ast.Ident) types.Object {
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// calleeName returns the bare function or method name of a call, ignoring
// the receiver or package qualifier: x.FlushWCB() and FlushWCB() both
// yield "FlushWCB".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// walkGuarded walks the statement lists of a function body, threading a
// guard state through its control structure: inside(g, cond) is the
// state in a body entered under cond, after(g, st) — when given — the
// state of the rest of a list once the if statement st is behind it,
// and visit sees every call of every other statement with the state in
// force there.
func walkGuarded[G any](stmts []ast.Stmt, g G, inside func(G, ast.Expr) G, after func(G, *ast.IfStmt) G, visit func(G, *ast.CallExpr)) {
	walk := func(stmts []ast.Stmt, g G) { walkGuarded(stmts, g, inside, after, visit) }
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.IfStmt:
			walk(st.Body.List, inside(g, st.Cond))
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				walk(e.List, g)
			case *ast.IfStmt:
				walk([]ast.Stmt{e}, g)
			}
			if after != nil {
				g = after(g, st)
			}
		case *ast.BlockStmt:
			walk(st.List, g)
		case *ast.ForStmt:
			walk(st.Body.List, inside(g, st.Cond))
		case *ast.RangeStmt:
			walk(st.Body.List, g)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				walk(c.(*ast.CaseClause).Body, g)
			}
		default:
			ast.Inspect(st, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					visit(g, call)
				}
				return true
			})
		}
	}
}

// hasSuffixPath reports whether pkgPath is path or ends in "/"+path.
func hasSuffixPath(pkgPath, path string) bool {
	return pkgPath == path || strings.HasSuffix(pkgPath, "/"+path)
}

// pkgPathIn reports whether pkgPath matches any entry.
func pkgPathIn(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if hasSuffixPath(pkgPath, s) {
			return true
		}
	}
	return false
}

// DefaultAnalyzers returns the full vsccvet rule suite with its
// per-package applicability:
//
//   - kernelclock audits the model packages, where all time and
//     concurrency must flow through internal/sim, plus internal/sim
//     itself in a relaxed mode (real concurrency sanctioned, wall
//     clock still banned),
//   - detorder audits the same set for map iterations whose randomized
//     order can reach kernel-clock-visible state or pick a winner,
//   - goryorder audits the gory-protocol packages plus the repository
//     root (whose integration tests exercise raw protocols),
//   - bannedcall, tracealloc, simapi and deadcode audit everything;
//     bannedcall's name table says per row which packages may not
//     call which callee.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		KernelClockAnalyzer(),
		DetOrderAnalyzer(),
		GoryOrderAnalyzer(),
		BannedCallAnalyzer(),
		TraceAllocAnalyzer(),
		SimAPIAnalyzer(),
		DeadCodeAnalyzer(),
	}
}

// modelPackages are the packages whose concurrency and time must flow
// through internal/sim.
var modelPackages = []string{
	"internal/noc", "internal/pcie", "internal/host", "internal/rcce",
	"internal/ircce", "internal/vscc", "internal/scc", "internal/mem",
	"internal/sched", "internal/taskrt",
}

// enginePackages hold the sanctioned concurrency channel itself: the
// event kernel and its PDES workers may use sync and channels, but the
// wall clock and process-global randomness stay forbidden even there.
var enginePackages = []string{"internal/sim"}

// goryPackages are the packages holding gory-protocol call sites.
var goryPackages = []string{"internal/rcce", "internal/ircce", "internal/vscc"}
