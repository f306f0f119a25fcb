// load.go is the package loader behind the vsccvet analyzer driver. It
// is deliberately stdlib-only (go/parser + go/types + go/importer): the
// module has no third-party dependencies and the lint layer must not
// introduce one.
//
// The loader parses every package under the module root and type-checks
// all of it: module-local imports resolve from source in dependency
// order, everything else through one process-wide source importer over
// GOROOT (offline, no export data, no go command). Test files are
// checked too — in-package tests join their package through the same
// checker once its build files are done, external _test packages are
// checked on their own — into the one types.Info of the directory, so
// an analyzer finds a type for every node it walks. Type errors are
// collected on the Program; a tree that does not compile is a load
// failure, not a best-effort analysis.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdlib type-checks non-module imports from GOROOT source, caching
// every package for the life of the process. It is not synchronized:
// load programs from one goroutine at a time.
var stdlib = importer.ForCompiler(token.NewFileSet(), "source", nil)

// Package is one loaded, parsed and type-checked directory.
type Package struct {
	// Path is the import path (module path + directory).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Files holds the non-test build files, in file-name order.
	Files []*ast.File
	// TestFiles holds the _test.go files (in-package and external), in
	// file-name order.
	TestFiles []*ast.File
	// Types is the package importers see: the build files, joined by the
	// in-package test files once those are checked.
	Types *types.Package
	// Info carries the type-check results of Files and TestFiles.
	Info *types.Info

	checker *types.Checker
}

// AllFiles returns build files followed by test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// Program is a loaded module: every package, sharing one FileSet.
type Program struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string
	// TypeErrors holds every type error of every loaded package, in
	// checking order.
	TypeErrors []error

	pkgs map[string]*Package

	// cg and live are built lazily and dropped when packages are added.
	cg   *CallGraph
	live *liveIndex
}

// NewProgram returns an empty Program, for loading packages outside any
// module walk (the analyzer tests load testdata fixtures into one).
func NewProgram() *Program {
	return &Program{Fset: token.NewFileSet(), pkgs: map[string]*Package{}}
}

// CallGraph returns the module-wide call graph, building it on first
// use. Loading a fixture package invalidates it, so packages loaded
// later are always indexed.
func (pr *Program) CallGraph() *CallGraph {
	if pr.cg == nil {
		pr.cg = NewCallGraph(pr)
	}
	return pr.cg
}

// liveIndex returns the module-wide use index of deadexport, building it
// on first use, the way CallGraph does.
func (pr *Program) liveIndex() *liveIndex {
	if pr.live == nil {
		pr.live = newLiveIndex(pr)
	}
	return pr.live
}

// Packages returns all loaded packages in import-path order.
func (pr *Program) Packages() []*Package {
	paths := make([]string, 0, len(pr.pkgs))
	for p := range pr.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, pr.pkgs[p])
	}
	return out
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// skipDir reports whether a directory is excluded from module walks, the
// same set the go tool ignores (testdata packages are loaded explicitly
// by the analyzer tests, never by LoadModule).
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule loads every package under the module containing dir.
func LoadModule(dir string) (*Program, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pr := NewProgram()
	pr.ModuleRoot, pr.ModulePath = root, mod
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		importPath := mod
		if rel, _ := filepath.Rel(root, d); rel != "." {
			importPath = mod + "/" + filepath.ToSlash(rel)
		}
		pkg, err := pr.parseDir(d, importPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pr.pkgs[importPath] = pkg
		}
	}
	for _, pkg := range pr.Packages() {
		pr.check(pkg)
	}
	return pr, nil
}

// parseDir parses the Go files of one directory; nil if there are none.
func (pr *Program) parseDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(pr.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	return pkg, nil
}

func (pr *Program) config() *types.Config {
	return &types.Config{
		Importer: (*moduleImporter)(pr),
		Error:    func(err error) { pr.TypeErrors = append(pr.TypeErrors, err) },
	}
}

// checkBuild type-checks a package's build files once; importing the
// package from another one lands here, so dependencies are checked
// first whatever the walk order.
func (pr *Program) checkBuild(pkg *Package) {
	if pkg.checker != nil {
		return
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg.Types = types.NewPackage(pkg.Path, "")
	pkg.checker = types.NewChecker(pr.config(), pr.Fset, pkg.Types, pkg.Info)
	_ = pkg.checker.Files(pkg.Files) // errors reach config().Error
}

// check type-checks the whole directory: the build files, then the
// in-package test files as more files of the same package (they may
// import packages that import this one, which by then is complete), then
// the external test package, which sees both.
func (pr *Program) check(pkg *Package) {
	pr.checkBuild(pkg)
	var in, ext []*ast.File
	for _, f := range pkg.TestFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			in = append(in, f)
		}
	}
	if len(in) > 0 {
		_ = pkg.checker.Files(in)
	}
	if len(ext) > 0 {
		_, _ = pr.config().Check(pkg.Path+"_test", pr.Fset, ext, pkg.Info)
	}
}

// moduleImporter resolves imports during type checking: loaded packages
// from source, everything else from GOROOT.
type moduleImporter Program

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	pr := (*Program)(m)
	dep := pr.pkgs[path]
	if dep == nil {
		if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
			return nil, fmt.Errorf("package %s is neither loaded nor in GOROOT", path)
		}
		return stdlib.Import(path)
	}
	pr.checkBuild(dep)
	if !dep.Types.Complete() {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	return dep.Types, nil
}
