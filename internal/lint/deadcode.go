package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// DeadCodeAnalyzer reports the package-level declarations of build files
// that no root reaches. The roots are the main of every package main,
// every init, every blank declaration and every declaration kept with
// //lint:ignore deadcode <reason>, so what a keep calls is not reported
// again; test files are never roots. This is rapid type analysis, as in
// golang.org/x/tools/cmd/deadcode: an object a reached declaration names
// is reached, a function value as much as a call; a const reaches its
// iota block; a method of a reached type is reached when the type
// implements an interface with the method's name that is declared outside
// the module (error, fmt.Stringer) or whose method reached code names.
func DeadCodeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deadcode",
		Doc:  "code needs a path from a package main, an init or a kept root: delete, move into a test or justify",
		Run:  runDeadCode,
	}
}

// reachability is the module-wide reached set behind deadcode, built once
// per Program. A declaration is a node: a FuncDecl, a TypeSpec, a var or
// const ValueSpec, or the GenDecl of an iota block.
type reachability struct {
	pr      *Program
	decls   map[types.Object]ast.Node
	reached map[ast.Node]bool
	types   []*types.Named                // reached module types
	ifaces  map[string][]*types.Interface // what a method may be called through, by name
	keeps   map[ast.Node]bool             // kept declarations, true if nothing else reaches them
}

func newReachability(pr *Program) *reachability {
	r := &reachability{pr: pr, decls: map[types.Object]ast.Node{}, reached: map[ast.Node]bool{},
		ifaces: map[string][]*types.Interface{}, keeps: map[ast.Node]bool{}}
	r.addIface(types.Universe.Lookup("error").Type())
	scanned := map[*types.Package]bool{}
	var roots, keeps []types.Object
	for _, pkg := range pr.Packages() {
		for _, imp := range pkg.Types.Imports() {
			if pr.pkgs[imp.Path()] == nil && !scanned[imp] {
				scanned[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						r.addIface(tn.Type())
					}
				}
			}
		}
		sup := collectSuppressions(pr.Fset, pkg)
		eachDecl(pkg, func(id *ast.Ident, node ast.Node, root bool) {
			obj := pkg.Info.Defs[id]
			r.decls[obj] = node
			if root {
				roots = append(roots, obj)
			} else if sup.covering("deadcode", pr.Fset.Position(id.Pos())) != nil {
				keeps = append(keeps, obj)
			}
		})
	}
	for _, obj := range roots {
		r.use(obj)
	}
	r.dispatch()
	for _, obj := range keeps {
		r.keeps[r.decls[obj]] = !r.reached[r.decls[obj]]
		r.use(obj)
	}
	r.dispatch()
	return r
}

// eachDecl calls fn with every name a build file of pkg declares at
// package level, its declaration node, and whether it is a root.
func eachDecl(pkg *Package, fn func(id *ast.Ident, node ast.Node, root bool)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn(d.Name, d, d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main"))
			case *ast.GenDecl:
				// A const block that repeats an expression counts with
				// iota: its constants live and die together.
				block := d.Tok == token.CONST && slices.ContainsFunc(d.Specs, func(s ast.Spec) bool { return len(s.(*ast.ValueSpec).Values) == 0 })
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						fn(s.Name, s, false)
					case *ast.ValueSpec:
						var node ast.Node = s
						if block {
							node = d
						}
						for _, id := range s.Names {
							fn(id, node, id.Name == "_")
						}
					}
				}
			}
		}
	}
}

// addIface indexes t by its method names if it is a method-set interface.
func (r *reachability) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
		}
	}
}

// use reaches the declaration of an object reached code names, or
// indexes the interface of an interface method under the method's name.
func (r *reachability) use(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if it := recv.Type().Underlying().(*types.Interface); !slices.Contains(r.ifaces[fn.Name()], it) {
				r.ifaces[fn.Name()] = append(r.ifaces[fn.Name()], it)
			}
			return
		}
	}
	node, ok := r.decls[obj]
	if !ok || r.reached[node] {
		return
	}
	if t, ok := obj.Type().(*types.Named); ok && t.Obj() == obj && t.TypeParams() == nil {
		r.types = append(r.types, t)
	}
	r.reached[node] = true
	info := r.pr.pkgs[obj.Pkg().Path()].Info
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
			r.use(info.Uses[id])
		}
		return true
	})
}

// dispatch reaches the methods of reached types through the indexed
// interfaces until no more are reached.
func (r *reachability) dispatch() {
	for n := -1; n != len(r.reached); {
		n = len(r.reached)
		for _, t := range r.types {
			ptr := types.NewPointer(t)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func).Origin()
				implements := func(it *types.Interface) bool { return types.Implements(ptr, it) }
				if node, ok := r.decls[m]; ok && !r.reached[node] && slices.ContainsFunc(r.ifaces[m.Name()], implements) {
					r.use(m)
				}
			}
		}
	}
}

func runDeadCode(pass *Pass) {
	if pass.Prog.dead == nil { // built once per Program, like its CallGraph
		pass.Prog.dead = newReachability(pass.Prog)
	}
	r := pass.Prog.dead
	eachDecl(pass.Pkg, func(id *ast.Ident, node ast.Node, root bool) {
		if !root && (!r.reached[node] || r.keeps[node]) {
			pass.Reportf(id.Pos(), "%s: no path from any package main, init or kept root: delete it, move it into a test as an oracle, or keep it with //lint:ignore deadcode <reason>", id.Name)
		}
	})
}
