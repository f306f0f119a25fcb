package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KernelClockAnalyzer forbids wall-clock time, unseeded process-global
// randomness and raw Go concurrency inside the model packages. The
// simulation contract (DESIGN.md §6, PR 1–2) is that every cycle of
// simulated time and every interleaving decision flows through the
// deterministic kernel in internal/sim: a single time.Now, goroutine or
// channel in a model package breaks byte-identical parallel sweeps.
// Importing package time at all is a finding in a model package — even
// time.Time/Duration as plain data invites wall-clock coupling, and no
// model code needs it.
//
// internal/sim itself — the sanctioned channel — is audited in a
// relaxed mode: the PDES engine legitimately runs worker goroutines
// with sync and channels, but the wall clock and math/rand stay
// forbidden there too, so sub-kernel code cannot smuggle real time in
// through the engine.
//
// Test files are exempt — tests may legitimately use wall-clock
// timeouts and goroutines to drive the simulator from outside.
//
// Beyond the direct scan, the rule is transitive: a call from a model
// package into any module function — however many helper hops or
// interface dispatches away — that reaches a wall-clock read, a
// math/rand use, or raw concurrency outside the sanctioned engine
// infrastructure (internal/sim, internal/trace, internal/harness) is
// reported at the model-package call site, with the offending call
// chain in the diagnostic. Callees inside the audited packages are not
// re-reported at call sites: the direct scan already flags them at the
// definition, and their own outgoing escapes are flagged at their own
// call sites. Interface dispatch reaches every module implementer (see
// callgraph.go), so an infeasible chain is suppressible with a proof.
func KernelClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "kernelclock",
		Doc:  "model packages take time and concurrency from internal/sim only; the engine itself never takes the wall clock",
		Applies: func(p string) bool {
			return pkgPathIn(p, modelPackages...) || pkgPathIn(p, enginePackages...)
		},
		Run: runKernelClock,
	}
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Pure data like time.Duration arithmetic would be deterministic, but no
// model package needs it, so any listed selector is reported.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// concurrencyAdvice is the direct finding for each raw-concurrency
// operation scanClockUses names.
var concurrencyAdvice = map[string]string{
	"goroutine":       "raw goroutine in a model package: spawn simulated processes with sim.Kernel.Spawn/SpawnDaemon so the kernel serializes execution deterministically",
	"select":          "select statement in a model package: nondeterministic case choice; block on sim primitives instead",
	"channel send":    "channel send in a model package: use sim.Queue.Push / sim.Cond.Broadcast",
	"channel receive": "channel receive in a model package: use sim.Queue.Pop / sim.Cond.Wait",
}

// scanClockUses visits, in syntactic order, every wall-clock entry point
// ("time.Now"), math/rand reference ("math/rand.Intn") and raw-
// concurrency operation (a concurrencyAdvice key) under root, until
// visit returns false. It is the one scan behind the direct findings
// and the transitive witnesses.
func scanClockUses(info *types.Info, root ast.Node, visit func(n ast.Node, what string) bool) {
	more := true
	ast.Inspect(root, func(n ast.Node) bool {
		if !more {
			return false
		}
		what := ""
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if obj := pkgObject(info, n.Sel); obj != nil {
				switch obj.Pkg().Path() {
				case "time":
					if forbiddenTimeFuncs[obj.Name()] {
						what = "time." + obj.Name()
					}
				case "math/rand", "math/rand/v2":
					what = "math/rand." + obj.Name()
				}
			}
		case *ast.GoStmt:
			what = "goroutine"
		case *ast.SelectStmt:
			what = "select"
		case *ast.SendStmt:
			what = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "channel receive"
			}
		}
		if what != "" {
			more = visit(n, what)
		}
		return more
	})
}

func runKernelClock(pass *Pass) {
	engine := pkgPathIn(pass.Pkg.Path, enginePackages...)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			switch path := strings.Trim(imp.Path.Value, "\"`"); path {
			case "time":
				if engine {
					pass.Reportf(imp.Pos(), "import of time in the simulation engine: the kernel IS the clock; worker coordination may use sync and channels, but simulated time advances only through the event queue")
				} else {
					pass.Reportf(imp.Pos(), "import of time in a model package: even time.Time/Duration data invites wall-clock coupling; simulated time is sim.Cycles on the kernel clock")
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s: unseeded process-global randomness breaks deterministic replay; derive randomness from an explicitly seeded source threaded through the harness", path)
			case "sync", "sync/atomic":
				if !engine {
					pass.Reportf(imp.Pos(), "import of %s in a model package: synchronization must use internal/sim primitives (Cond, Queue, Gate), which keep the event order deterministic", path)
				}
			}
		}
		scanClockUses(pass.Info, f, func(n ast.Node, what string) bool {
			if advice, concurrency := concurrencyAdvice[what]; concurrency {
				if !engine {
					pass.Reportf(n.Pos(), "%s", advice)
				}
			} else if strings.HasPrefix(what, "time.") { // a math/rand use is reported once, at its import
				pass.Reportf(n.Pos(), "%s: simulated time is the kernel clock (sim.Proc.Delay / Kernel.Now), never the wall clock", what)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTransitiveClock(pass, n)
			case *ast.ChanType: // declares, moves nothing: a finding here, never a witness
				if !engine {
					pass.Reportf(n.Pos(), "channel type in a model package: cross-process signalling must use sim.Cond/sim.Queue, which wake processes in deterministic event order")
				}
			}
			return true
		})
	}
}

// checkTransitiveClock reports a call site whose resolved callee —
// outside the directly audited packages — transitively reaches the wall
// clock, math/rand, or unsanctioned raw concurrency. One report per
// call site, first witnessing candidate wins (candidate order is
// deterministic).
func checkTransitiveClock(pass *Pass, call *ast.CallExpr) {
	cg := pass.CallGraph()
	callees, _ := cg.Resolve(pass.Info, call)
	for _, c := range callees {
		if pkgPathIn(c.Pkg.Path, modelPackages...) || pkgPathIn(c.Pkg.Path, enginePackages...) {
			continue // audited directly; escapes flagged at its own sites
		}
		w := cg.ClockWitness(c)
		if w == nil {
			continue
		}
		if w.Concurrency {
			pass.ReportChain(call.Pos(), w.Chain,
				"call reaches raw concurrency (%s) outside the engine: %s; route the interleaving through internal/sim so reruns stay byte-identical", w.What, FormatChain(w.Chain))
		} else {
			pass.ReportChain(call.Pos(), w.Chain,
				"call reaches %s: %s; simulated time and randomness must come from the kernel clock and seeded sources", w.What, FormatChain(w.Chain))
		}
		return
	}
}
