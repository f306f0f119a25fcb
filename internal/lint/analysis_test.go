// analysis_test.go is the golden-test harness for the analyzers, modeled
// on golang.org/x/tools' analysistest but stdlib-only. A fixture package
// under testdata/src/<rule>/ annotates the lines it expects diagnostics
// on with trailing comments of the form
//
//	call() // want "regexp1" "regexp2"
//
// Each quoted regexp must match the message of exactly one diagnostic
// reported on that line; unmatched expectations and unexpected
// diagnostics both fail the test. Fixture packages are ignored by the go
// tool (testdata/), so they may reference stub types freely.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FixtureDep names another package of a multi-package fixture: its
// testdata directory and the import path it is loaded under. Deps are
// loaded (and type-checked) before the fixture, so qualified calls into
// them resolve through the call graph; a User dep imports the fixture and
// is loaded after it. Neither is analyzed — only the fixture package's
// // want annotations are diffed.
type FixtureDep struct {
	Dir        string
	ImportPath string
	User       bool
}

// RunAnalyzerTest loads dir as a fixture package under importPath (the
// path chooses which Applies filters see it), after loading any deps,
// and diffs the analyzer's diagnostics against the fixture's // want
// annotations.
func RunAnalyzerTest(t *testing.T, a *Analyzer, dir, importPath string, deps ...FixtureDep) {
	t.Helper()
	pr := NewProgram()
	load := func(users bool) {
		for _, dep := range deps {
			if dep.User != users {
				continue
			}
			if _, err := pr.loadDir(dep.Dir, dep.ImportPath); err != nil {
				t.Fatalf("loading fixture dep %s: %v", dep.Dir, err)
			}
		}
	}
	load(false)
	pkg, err := pr.loadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	load(true)
	if a.Applies != nil && !a.Applies(importPath) {
		t.Fatalf("fixture import path %q is filtered out by %s.Applies", importPath, a.Name)
	}
	for _, err := range pr.TypeErrors {
		t.Errorf("fixture does not type-check: %v", err)
	}
	diags := RunPackage(pr, pkg, []*Analyzer{a})

	wants := collectWants(t, pr.Fset, pkg)
	for _, d := range diags {
		if !wants.match(d) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
	}
}

// want is one expectation: a regexp on a specific file line.
type want struct {
	file    string
	line    int
	re      string
	rx      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

// wantRE extracts the quoted regexps of a // want comment.
var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)\s*$`)

var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "want \"") {
						t.Fatalf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantArgRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					ws.wants = append(ws.wants, &want{file: pos.Filename, line: pos.Line, re: pat, rx: rx})
				}
			}
		}
	}
	return ws
}

// match consumes the first unmatched expectation covering the diagnostic.
func (ws *wantSet) match(d Diagnostic) bool {
	for _, w := range ws.wants {
		if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
			continue
		}
		if w.rx.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

// loadDir loads a single testdata directory as a package with the given
// import path, type-checked against the already-loaded program.
func (pr *Program) loadDir(dir, importPath string) (*Package, error) {
	pkg, err := pr.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pr.pkgs[importPath] = pkg
	pr.check(pkg)
	pr.cg, pr.live = nil, nil
	return pkg, nil
}

// ParseFixtureFile parses source text as a one-file fixture package
// inside pr under importPath — for unit tests that do not need a
// testdata directory.
func (pr *Program) ParseFixtureFile(filename, src, importPath string) (*Package, error) {
	f, err := parser.ParseFile(pr.Fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg := &Package{Path: importPath, Dir: "."}
	if strings.HasSuffix(filename, "_test.go") {
		pkg.TestFiles = []*ast.File{f}
	} else {
		pkg.Files = []*ast.File{f}
	}
	pr.pkgs[importPath] = pkg
	pr.check(pkg)
	pr.cg, pr.live = nil, nil
	return pkg, nil
}
