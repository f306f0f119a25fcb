// vsccvet is the project-specific static analyzer for this repository.
// It loads and type-checks the module — test files and the standard
// library included — with the stdlib-only driver in internal/lint and
// runs the rule suite that machine-checks the paper's non-coherent-MPB
// programming discipline and the simulator's own invariants; -rules
// lists the rules, lint.DefaultAnalyzers documents where each applies.
//
// Usage:
//
//	vsccvet [-rules] [-json] [packages]
//
// Package patterns are module-relative ("./...", "./internal/scc",
// "internal/..."); with no pattern the whole module is vetted. -json
// replaces the line-oriented output with a machine-readable report
// (module, rule suite, findings with call chains, per-rule counts) whose
// bytes are identical across runs on an unchanged tree. Under GitHub
// Actions (GITHUB_ACTIONS=true) findings are additionally emitted as
// ::error workflow annotations. Exit status: 0 clean, 1 findings, 2 load,
// type or usage error. Findings are suppressed per line with //lint:ignore
// <rule> <reason>; a suppression that covers nothing is itself a
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vscc/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsccvet:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

func run(cwd string, args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("vsccvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: vsccvet [-rules] [-json] [packages]")
		fs.PrintDefaults()
	}
	listRules := fs.Bool("rules", false, "list the rule suite and exit")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.DefaultAnalyzers()
	if *listRules {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	pr, err := lint.LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(errw, "vsccvet:", err)
		return 2
	}
	if n := len(pr.TypeErrors); n > 0 {
		fmt.Fprintf(errw, "vsccvet: %d type error(s), first: %v\n", n, pr.TypeErrors[0])
		return 2
	}
	pkgs, err := selectPackages(pr, cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(errw, "vsccvet:", err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.RunPackage(pr, pkg, analyzers)...)
	}
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	if *jsonOut {
		if err := writeJSON(out, pr, analyzers, diags); err != nil {
			fmt.Fprintln(errw, "vsccvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if annotate {
		for _, d := range diags {
			fmt.Fprintln(errw, annotation(pr, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errw, "vsccvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonReport is the -json output. Field order, module-relative slash
// paths, sorted findings (the driver's order) and map-key-sorted counts
// make the marshaled bytes identical across runs on an unchanged tree —
// CI diffs the artifact directly.
type jsonReport struct {
	Module   string         `json:"module"`
	Rules    []jsonRule     `json:"rules"`
	Findings []jsonFinding  `json:"findings"`
	Counts   map[string]int `json:"counts"`
}

type jsonRule struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

type jsonFinding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Chain is the call path of an interprocedural finding, outermost
	// function first.
	Chain []string `json:"chain,omitempty"`
}

func writeJSON(out io.Writer, pr *lint.Program, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	rep := jsonReport{
		Module:   pr.ModulePath,
		Rules:    make([]jsonRule, 0, len(analyzers)),
		Findings: make([]jsonFinding, 0, len(diags)),
		Counts:   map[string]int{},
	}
	for _, a := range analyzers {
		rep.Rules = append(rep.Rules, jsonRule{Name: a.Name, Doc: a.Doc})
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			Rule:    d.Rule,
			File:    relPath(pr, d.Position.Filename),
			Line:    d.Position.Line,
			Col:     d.Position.Column,
			Message: d.Message,
			Chain:   d.Chain,
		})
		rep.Counts[d.Rule]++
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

// annotation renders one finding as a GitHub Actions workflow command,
// which the runner turns into an inline PR annotation.
func annotation(pr *lint.Program, d lint.Diagnostic) string {
	msg := d.Message
	if len(d.Chain) > 0 {
		msg += " [" + lint.FormatChain(d.Chain) + "]"
	}
	// Workflow-command data is %-, CR- and LF-escaped.
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=vsccvet/%s::%s",
		relPath(pr, d.Position.Filename), d.Position.Line, d.Position.Column, d.Rule, esc.Replace(msg))
}

// relPath rewrites an absolute diagnostic path module-relative with
// forward slashes, so reports do not leak the checkout directory and
// stay byte-identical across machines.
func relPath(pr *lint.Program, file string) string {
	if rel, err := filepath.Rel(pr.ModuleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// selectPackages resolves go-style package patterns relative to cwd
// against the loaded module. Supported shapes: ".", "./...", "./x",
// "x/..." and plain module-relative paths.
func selectPackages(pr *lint.Program, cwd string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rel, err := filepath.Rel(pr.ModuleRoot, cwd)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("working directory %s is outside module %s", cwd, pr.ModuleRoot)
	}
	base := pr.ModulePath
	if rel != "." {
		base = pr.ModulePath + "/" + filepath.ToSlash(rel)
	}
	join := func(p string) string {
		if p == "" || p == "." {
			return base
		}
		return base + "/" + p
	}
	seen := map[string]bool{}
	var out []*lint.Package
	for _, pat := range patterns {
		p := strings.TrimPrefix(filepath.ToSlash(pat), "./")
		recursive := false
		if p == "..." {
			p, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, recursive = rest, true
		}
		root := join(p)
		matched := false
		for _, pkg := range pr.Packages() {
			ok := pkg.Path == root || (recursive && strings.HasPrefix(pkg.Path, root+"/"))
			if !ok || seen[pkg.Path] {
				matched = matched || ok
				continue
			}
			seen[pkg.Path] = true
			matched = true
			out = append(out, pkg)
		}
		if !matched {
			return nil, fmt.Errorf("no packages match %q", pat)
		}
	}
	return out, nil
}
