package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzersGolden diffs every analyzer against its testdata fixture
// package. The fixture import path places it where the analyzer's
// Applies filter expects its targets (model package, protocol extension,
// plain package).
func TestAnalyzersGolden(t *testing.T) {
	tests := []struct {
		analyzer   *Analyzer
		dir        string
		importPath string
		deps       []FixtureDep
	}{
		{KernelClockAnalyzer(), "kernelclock", "vscc/internal/noc", nil},
		{KernelClockAnalyzer(), "kernelclock_engine", "vscc/internal/sim", nil},
		{KernelClockAnalyzer(), "kernelclock_ipa", "vscc/internal/noc", []FixtureDep{
			{Dir: filepath.Join("testdata", "src", "kernelclock_ipa_util"), ImportPath: "vscc/internal/util"},
		}},
		{KernelClockAnalyzer(), "kernelclock_dispatch", "vscc/internal/noc", []FixtureDep{
			{Dir: filepath.Join("testdata", "src", "kernelclock_dispatch_util"), ImportPath: "vscc/internal/util"},
		}},
		{DetOrderAnalyzer(), "detorder", "vscc/internal/noc", nil},
		{GoryOrderAnalyzer(), "goryorder", "vscc/internal/rcce", nil},
		{GoryOrderAnalyzer(), "goryorder_ipa", "vscc/internal/vscc", nil},
		{GoryOrderAnalyzer(), "goryorder_testfile", "vscc/internal/vscc", nil},
		{BannedCallAnalyzer(), "faultorder", "vscc/internal/vscc", nil},
		{BannedCallAnalyzer(), "flagdiscipline", "fixture/flagdiscipline", []FixtureDep{
			{Dir: filepath.Join("testdata", "src", "flagdiscipline_rcce"), ImportPath: "vscc/internal/rcce"},
			{Dir: filepath.Join("testdata", "src", "flagdiscipline_notrcce"), ImportPath: "example.test/notrcce"},
		}},
		{BannedCallAnalyzer(), "flagdiscipline_ext", "vscc/internal/ircce", nil},
		{TraceAllocAnalyzer(), "tracealloc", "fixture/tracealloc", nil},
		{SimAPIAnalyzer(), "simapi", "fixture/simapi", nil},
		{DeadCodeAnalyzer(), "deadcode", "fixture/deadcode", []FixtureDep{
			{Dir: filepath.Join("testdata", "src", "deadcode_main"), ImportPath: "fixture/deadcode/cmd", User: true},
			{Dir: filepath.Join("testdata", "src", "deadcode_bench"), ImportPath: "fixture/deadcode/bench", User: true},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.dir, func(t *testing.T) {
			RunAnalyzerTest(t, tt.analyzer, filepath.Join("testdata", "src", tt.dir), tt.importPath, tt.deps...)
		})
	}
}

// TestSuppressions pins down the //lint:ignore contract: same line or
// line above, comma-separated rule lists, the "all" wildcard, wrong-rule
// comments not suppressing, and reason-less comments being findings
// themselves.
func TestSuppressions(t *testing.T) {
	const src = `package p

type c struct{}

func (c) Delay(d uint64) {}

func f(x c, a, b uint64) {
	x.Delay(a - b)
	//lint:ignore simapi,othertool proof: a is b plus cost
	x.Delay(a - b)
	x.Delay(a - b) //lint:ignore all broad proof
	//lint:ignore goryorder wrong rule for this finding
	x.Delay(a - b)
	//lint:ignore simapi
	x.Delay(a - b)
}
`
	pr := NewProgram()
	pkg, err := pr.ParseFixtureFile("sup.go", src, "fixture/sup")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pr, pkg, []*Analyzer{SimAPIAnalyzer()})

	type finding struct {
		rule string
		line int
	}
	var got []finding
	for _, d := range diags {
		got = append(got, finding{d.Rule, d.Position.Line})
	}
	want := []finding{
		{"simapi", 8},  // unsuppressed baseline
		{"simapi", 13}, // preceding comment names a different rule
		{"lint", 14},   // reason-less suppression is malformed...
		{"simapi", 15}, // ...and does not suppress
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUnusedSuppression pins the stale-suppression report: a
// //lint:ignore covering no finding of a rule that ran is itself a
// finding, while a suppression naming a rule outside the run is left
// alone (it may be load-bearing for another tool or invocation).
func TestUnusedSuppression(t *testing.T) {
	const src = `package p

type c struct{}

func (c) Delay(d uint64) {}

func f(x c, a, b uint64) {
	//lint:ignore simapi stale proof left behind by a refactor
	x.Delay(a + b)
	//lint:ignore othertool not vsccvet's rule, must survive
	x.Delay(a + b)
}
`
	pr := NewProgram()
	pkg, err := pr.ParseFixtureFile("unused.go", src, "fixture/unused")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pr, pkg, []*Analyzer{SimAPIAnalyzer()})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly the unused-suppression report", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "lint" || d.Position.Line != 8 || !strings.Contains(d.Message, "unused suppression for simapi") {
		t.Errorf("got %s, want lint: unused suppression for simapi at line 8", d)
	}
}

// TestDiagnosticChain pins that interprocedural findings carry the call
// chain as structured data (the -json contract), not only inside the
// message text.
func TestDiagnosticChain(t *testing.T) {
	pr := NewProgram()
	if _, err := pr.loadDir(filepath.Join("testdata", "src", "kernelclock_ipa_util"), "vscc/internal/util"); err != nil {
		t.Fatal(err)
	}
	pkg, err := pr.loadDir(filepath.Join("testdata", "src", "kernelclock_ipa"), "vscc/internal/noc")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pr, pkg, []*Analyzer{KernelClockAnalyzer()})
	var deep *Diagnostic
	for i, d := range diags {
		if strings.Contains(d.Message, "util.Stamp2") {
			deep = &diags[i]
		}
	}
	if deep == nil {
		t.Fatalf("no diagnostic through util.Stamp2 in %v", diags)
	}
	want := []string{"util.Stamp2", "util.stampIndirect", "util.SlowStamp"}
	if len(deep.Chain) != len(want) {
		t.Fatalf("chain = %v, want %v", deep.Chain, want)
	}
	for i := range want {
		if deep.Chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", deep.Chain, want)
		}
	}
}

// TestDiagnosticString pins the path:line:col: rule: message format the
// CI log parser and editors rely on.
func TestDiagnosticString(t *testing.T) {
	pr := NewProgram()
	pkg, err := pr.ParseFixtureFile("d.go", "package p\n\nfunc f(p interface{ Delay(uint64) }, a, b uint64) {\n\tp.Delay(a - b)\n}\n", "fixture/d")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pr, pkg, []*Analyzer{SimAPIAnalyzer()})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	s := diags[0].String()
	if !strings.HasPrefix(s, "d.go:4:10: simapi: ") {
		t.Errorf("diagnostic string = %q, want d.go:4:10: simapi: prefix", s)
	}
}

// TestRepoIsLintClean runs the full rule suite over the repository the
// way cmd/vsccvet does, pinning the tree at zero findings so CI catches
// new violations the moment they are introduced.
func TestRepoIsLintClean(t *testing.T) {
	pr, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pr.Packages() {
		for _, d := range RunPackage(pr, pkg, DefaultAnalyzers()) {
			t.Errorf("%s", d)
		}
	}
}

// TestLoadModule sanity-checks the loader: the module resolves, known
// packages are present, and the whole tree — standard library and test
// files included — type-checks without a single error.
func TestLoadModule(t *testing.T) {
	pr, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if pr.ModulePath != "vscc" {
		t.Fatalf("module path = %q, want vscc", pr.ModulePath)
	}
	for _, err := range pr.TypeErrors {
		t.Errorf("type error: %v", err)
	}
	for _, path := range []string{"vscc", "vscc/internal/sim", "vscc/internal/scc", "vscc/internal/rcce", "vscc/internal/lint"} {
		pkg := pr.pkgs[path]
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		if len(pkg.Files) > 0 && pkg.Types == nil {
			t.Errorf("package %s has no type information", path)
		}
	}
	if pr.pkgs["vscc/internal/lint/testdata/src/simapi"] != nil {
		t.Error("testdata fixture leaked into the module load")
	}
}
