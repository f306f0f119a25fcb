package lint

import (
	"go/ast"
	"go/types"
)

// FlagDisciplineAnalyzer polices raw flag-byte addressing. The MPB flag
// arrays (sent/ready/grant/vDMA-completion, rank.go) are RCCE-internal
// layout: FlagByteAt/PeekFlagByte exist only so that the
// protocol extensions (internal/ircce, internal/vscc) can build their
// value-encoded counter protocols on top. Everywhere else — model code,
// harness, commands, tests — flag traffic must go through the
// SignalSent/SignalReady/Await*/Peek*/Clear* hooks, which charge the
// right costs and keep the flag-vs-data traffic split honest.
//
// Inside the allowed packages, the kind argument must still be one of
// the named rcce.Flag* constants: a bare numeric kind silently breaks
// when the flag-area layout changes.
func FlagDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "flagdiscipline",
		Doc:  "raw flag-byte addressing is reserved for protocol extensions and needs named kinds",
		Run:  runFlagDiscipline,
	}
}

// flagAddrFuncs are the raw-addressing helpers; the first argument of
// each is a flag kind.
var flagAddrFuncs = map[string]bool{"FlagByteAt": true, "PeekFlagByte": true}

func runFlagDiscipline(pass *Pass) {
	allowed := pkgPathIn(pass.Pkg.Path, goryPackages...)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !flagAddrFuncs[name] || !isRCCEFlagCall(pass.Info, call) {
				return true
			}
			if !allowed {
				pass.Reportf(call.Pos(), "raw flag-byte addressing (%s) outside a protocol extension: use the rcce hooks (SignalSent/SignalReady/Await*/Peek*/Clear*) instead", name)
			}
			if len(call.Args) > 0 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					pass.Reportf(call.Args[0].Pos(), "numeric flag kind %s in %s: use the named rcce.Flag* constants (FlagSent/FlagReady/FlagGrant/FlagDMAC)", lit.Value, name)
				}
			}
			return true
		})
	}
}

// isRCCEFlagCall filters out same-named functions from other packages:
// a package-qualified call counts only when the qualifier is an rcce
// package; bare calls (rcce-internal or fixture-local) and method
// calls on a value (r.PeekFlagByte) always count.
func isRCCEFlagCall(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return hasSuffixPath(pn.Imported().Path(), "rcce")
			}
		}
	}
	return true
}
