package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module on disk and returns its root.
// vsccvet parses and type-checks source directly (no go command), so a
// go.mod plus Go files that compile is a complete fixture.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// dirtyModule has two kernelclock findings in a model package (the time
// import and the time.Sleep selector).
func dirtyModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/noc/bad.go": `package noc

import "time"

func Bad() { time.Sleep(1) }
`,
		"cmd/tool/main.go": "package main\n\nimport \"tmpmod/internal/noc\"\n\nfunc main() { noc.Bad() }\n",
	})
}

func cleanModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/noc/ok.go": `package noc

func Ok(a, b int) int { return a + b }
`,
		"cmd/tool/main.go": "package main\n\nimport \"tmpmod/internal/noc\"\n\nfunc main() { _ = noc.Ok(1, 2) }\n",
	})
}

// TestJSONByteIdentical pins the -json determinism contract: two runs
// over the same tree produce byte-identical reports, and the report
// carries module-relative paths and per-rule counts.
func TestJSONByteIdentical(t *testing.T) {
	root := dirtyModule(t)
	var first, second bytes.Buffer
	if code := run(root, []string{"-json", "./..."}, &first, &bytes.Buffer{}); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if code := run(root, []string{"-json", "./..."}, &second, &bytes.Buffer{}); code != 1 {
		t.Fatalf("second exit code = %d, want 1", code)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("reports differ between runs:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(first.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Module != "tmpmod" {
		t.Errorf("module = %q, want tmpmod", rep.Module)
	}
	if len(rep.Findings) != 2 || rep.Counts["kernelclock"] != 2 {
		t.Fatalf("findings = %+v, counts = %v, want 2 kernelclock findings", rep.Findings, rep.Counts)
	}
	for _, f := range rep.Findings {
		if f.File != "internal/noc/bad.go" {
			t.Errorf("finding path = %q, want module-relative internal/noc/bad.go", f.File)
		}
	}
	listed := false
	for _, r := range rep.Rules {
		listed = listed || r.Name == "deadcode"
	}
	if !listed {
		t.Errorf("report rules %+v miss deadcode", rep.Rules)
	}
}

// TestExitCodes pins the exit-status policy: 0 clean, 1 findings, 2
// usage/load errors.
func TestExitCodes(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(cleanModule(t), nil, &out, &errw); code != 0 {
		t.Errorf("clean module: exit %d, want 0 (stderr: %s)", code, errw.String())
	}
	if code := run(dirtyModule(t), nil, &out, &errw); code != 1 {
		t.Errorf("dirty module: exit %d, want 1", code)
	}
	if code := run(cleanModule(t), []string{"./nonexistent/..."}, &out, &errw); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2", code)
	}
	if code := run(t.TempDir(), nil, &out, &errw); code != 2 {
		t.Errorf("no go.mod: exit %d, want 2", code)
	}
	errw.Reset()
	broken := writeModule(t, map[string]string{
		"go.mod":              "module tmpmod\n\ngo 1.22\n",
		"internal/noc/bad.go": "package noc\n\nfunc bad() int { return undefined }\n",
	})
	if code := run(broken, nil, &out, &errw); code != 2 || !strings.Contains(errw.String(), "undefined: undefined") {
		t.Errorf("type error: exit %d, want 2 naming it (stderr: %s)", code, errw.String())
	}
}

// TestGitHubAnnotations pins the ::error workflow-command emission under
// GITHUB_ACTIONS, and its absence outside CI.
func TestGitHubAnnotations(t *testing.T) {
	root := dirtyModule(t)
	t.Setenv("GITHUB_ACTIONS", "true")
	var out, errw bytes.Buffer
	if code := run(root, nil, &out, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "::error file=internal/noc/bad.go,line=3,col=8,title=vsccvet/kernelclock::") {
		t.Errorf("no ::error annotation in stderr:\n%s", errw.String())
	}

	t.Setenv("GITHUB_ACTIONS", "")
	errw.Reset()
	if code := run(root, nil, &out, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if strings.Contains(errw.String(), "::error") {
		t.Errorf("annotation emitted outside CI:\n%s", errw.String())
	}
}

// TestRulesFlag keeps -rules listing every analyzer of the suite.
func TestRulesFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run(cleanModule(t), []string{"-rules"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, rule := range []string{"kernelclock", "detorder", "goryorder", "faultorder", "flagdiscipline", "tracealloc", "simapi", "deadcode"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-rules output misses %s:\n%s", rule, out.String())
		}
	}
}
