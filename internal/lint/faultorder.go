package lint

import (
	"go/ast"
)

// FaultOrderAnalyzer enforces the engaged-wait timeout discipline of the
// fault model (DESIGN.md §8): in the inter-device protocol layers every
// blocking wait on remote progress must go through a budget-carrying
// primitive, so a lost SIF packet, a stalled host task or a vanished
// flag write surfaces as a bounded, retryable timeout instead of a
// silent deadlock.
//
// The rule audits internal/vscc and internal/ircce — the layers whose
// waits a cross-device fault can starve — and reports every call of the
// one un-budgeted wait primitive left, scc's WaitFlag (the collectives'
// on-chip barrier keeps it). Call sites must use WaitFlagFor or the
// other *For waits, which thread an explicit cycle budget (0 = wait
// forever, for fault-free configurations) and report expiry to the
// caller.
//
// Test files are exempt: tests drive raw protocols on fault-free
// fabrics where an unbounded wait is the point of the assertion.
func FaultOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "faultorder",
		Doc:     "inter-device protocol waits must carry a cycle budget (*For variants)",
		Applies: func(p string) bool { return pkgPathIn(p, "internal/vscc", "internal/ircce") },
		Run:     runFaultOrder,
	}
}

func runFaultOrder(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == "WaitFlag" {
				pass.Reportf(call.Pos(), "un-budgeted engaged wait WaitFlag: a lost packet or stalled host deadlocks here forever; use WaitFlagFor with a cycle budget (0 = no bound when faults are off)")
			}
			return true
		})
	}
}
