package lint

import (
	"go/ast"
	"go/types"
)

// DeadExportAnalyzer keeps the exported surface honest: an exported
// package-level name or method declared in a non-test file of a library
// package must be used by some non-test file of the module — a command,
// an example, the benchmark, another package or its own. A name only
// tests reach is API nobody ships; the census that finds it is this rule,
// not a hand-kept list.
//
// A method that implements a named interface — declared in the module or
// in a package the module imports (fmt.Stringer, sort.Interface), or
// error — is live: it is called through the interface. A name that a
// test of another package must read, or that a recorded experiment rests
// on, keeps a //lint:ignore deadexport comment saying which.
func DeadExportAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deadexport",
		Doc:  "exported names need a use outside the tests: delete, unexport or justify",
		Run:  runDeadExport,
	}
}

// liveIndex is the module-wide use set behind deadexport, built once per
// Program: every object a non-test file names, and the method-set
// interfaces a method can stay live through, by method name.
type liveIndex struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

func newLiveIndex(pr *Program) *liveIndex {
	ix := &liveIndex{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	scanned := map[*types.Package]bool{}
	addScope := func(p *types.Package) {
		if scanned[p] {
			return
		}
		scanned[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				ix.addIface(tn.Type())
			}
		}
	}
	ix.addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pr.Packages() {
		addScope(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addScope(imp)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := pkg.Info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin() // an instantiation uses its generic declaration
					}
					ix.used[obj] = true
				}
				return true
			})
		}
	}
	return ix
}

// addIface indexes t by its method names if it is a method-set interface.
func (ix *liveIndex) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		ix.ifaces[name] = append(ix.ifaces[name], it)
	}
}

// live reports whether obj is used outside the tests, or is a method
// whose receiver implements an indexed interface carrying its name.
func (ix *liveIndex) live(obj types.Object) bool {
	if ix.used[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	recv := fn.Signature().Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for _, it := range ix.ifaces[fn.Name()] {
		if types.Implements(recv, it) {
			return true
		}
	}
	return false
}

func runDeadExport(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	ix := pass.Prog.liveIndex()
	check := func(id *ast.Ident) {
		if obj := pass.Info.Defs[id]; obj != nil && id.IsExported() && !ix.live(obj) {
			pass.Reportf(id.Pos(), "exported %s has no use outside the tests: delete it, unexport it, or keep it with //lint:ignore deadexport <reason>", id.Name)
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id)
						}
					}
				}
			}
		}
	}
}
