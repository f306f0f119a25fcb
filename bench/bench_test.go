package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"vscc/internal/harness"
	"vscc/internal/npb"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// tinyScale shrinks every workload so the whole benchmark runs in a
// couple of seconds. The sizes still straddle the MPB chunk, so the
// §4.1 drop check runs.
func tinyScale() scale {
	return scale{
		sizes:       []int{4096, 8192},
		reps:        1,
		class:       npb.ClassS,
		onchipRanks: 4,
		xdevRanks:   4,
		xdevDevices: 2,
		jobsFile:    "testdata/tiny.jobs",
		schedules:   1,
		taskRanks:   4,
		taskSize:    4,
		taskIters:   2,
		chaosPoints: 2,
	}
}

// contract is the layout of BENCHMARK.json.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// wantContract builds BENCHMARK.json from the tables the program
// itself prints from.
func wantContract() contract {
	c := contract{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads() {
		c.Workloads = append(c.Workloads, contractLoad{w.name, w.why})
	}
	for _, m := range endToEnd()[:contractEndToEnd] {
		bound := m.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range append(driverMetrics(), tracedMetrics()...) {
		c.PerLayer = append(c.PerLayer, contractMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	return c
}

func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is not what metrics.go and workloads.go describe; run go test ./bench -run TestBenchmarkJSON -update", path)
	}
}

// TestContractLimits holds the tables to the limits a BENCHMARK.json
// reader enforces.
func TestContractLimits(t *testing.T) {
	c := wantContract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s metric in seconds, lower is better")
	}
}

// TestEveryMetricPrinted runs every workload at tinyScale, timed and
// traced, plus the layer drivers, and checks that each metric is printed
// exactly once where it applies and that the span file is well formed.
func TestEveryMetricPrinted(t *testing.T) {
	harness.SetParallelism(1)
	defer harness.SetParallelism(0)
	sc := tinyScale()
	dir := t.TempDir()
	layers := runLayers(0) // one operation per batch: names and plumbing, not numbers

	printedOnce := func(out, metric string) {
		t.Helper()
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				n++
			}
		}
		if n != 1 {
			t.Errorf("metric %s printed %d times, want once", metric, n)
		}
	}

	for _, w := range workloads() {
		timed, err := runTimed(w, 1, 0, func() (*passReport, error) { return timedPass(w, sc, 1, time.Now()) })
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if timed.Failed != 0 || timed.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", w.name, timed.Attempted, timed.Failed)
		}
		if n := timed.EndToEnd["wall_s"].N; n != minTimedPasses {
			t.Errorf("%s: %d timed passes for -seconds 0, want %d", w.name, n, minTimedPasses)
		}
		tr, err := runTraced(w, sc, 1, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.SimDigest != timed.SimDigest {
			t.Errorf("%s: traced run has sim_digest %s, timed run %s", w.name, tr.SimDigest, timed.SimDigest)
		}
		if tr.PerLayer["sim.events"].Median == 0 || tr.PerLayer["trace.overhead_ratio"].Median == 0 {
			t.Errorf("%s: traced run reports no events or no overhead ratio", w.name)
		}

		// The result line carries exactly the metrics BENCHMARK.json
		// lists for each trace mode.
		checkResultLine(t, w.name+" timed", resultLine(timed, nil), wantContract().EndToEnd)
		checkResultLine(t, w.name+" traced", resultLine(tr, layers), wantContract().PerLayer)

		var out bytes.Buffer
		if err := merge(timed, tr); err != nil {
			t.Error(err)
		}
		printWorkload(&out, timed)
		for _, m := range append(endToEnd(), perLayer()...) {
			if m.source != "driver" && (m.only == "" || m.only == w.name) {
				printedOnce(out.String(), m.name)
			}
		}
		if w.name == "pingpong_sweep" && timed.EndToEnd["paper_err_pct"].Median == 0 {
			t.Error("pingpong_sweep: paper_err_pct is 0")
		}

		blob, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var sf spanFile
		if err := json.Unmarshal(blob, &sf); err != nil {
			t.Fatalf("%s span file: %v", w.name, err)
		}
		if sf.Workload != w.name || len(sf.Spans) < 2 {
			t.Errorf("%s span file: workload %q, %d spans", w.name, sf.Workload, len(sf.Spans))
		}
		ids := map[int]span{}
		for _, s := range sf.Spans {
			ids[s.ID] = s
		}
		for _, s := range sf.Spans {
			if s.EndNs < s.StartNs {
				t.Errorf("%s span %d %q ends before it starts", w.name, s.ID, s.Name)
			}
			if s.Parent != 0 {
				p, ok := ids[s.Parent]
				if !ok || p.Pass != s.Pass {
					t.Errorf("%s span %d %q: parent %d missing or in another pass", w.name, s.ID, s.Name, s.Parent)
				}
			}
		}
	}

	var out bytes.Buffer
	printValues(&out, "layers", driverMetrics(), layers)
	for _, m := range driverMetrics() {
		printedOnce(out.String(), m.name)
	}
	if got := layers["trace.span_off_allocs"].Median; got != 0 {
		t.Errorf("trace.span_off_allocs = %v, want 0: the nil sink allocates", got)
	}
}

func checkResultLine(t *testing.T, what, line string, want []contractMetric) {
	t.Helper()
	var got struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s result line: %v", what, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Errorf("%s result line lacks one of correct, attempted, failed: %s", what, line)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("%s result line has %d metrics, want %d", what, len(got.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := got.Metrics[m.Name]; !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("%s result line: metric %s missing or in unit %q, want %q", what, m.Name, v.Unit, m.Unit)
		}
	}
}

func TestJudge(t *testing.T) {
	v := func(samples ...float64) value { return valueOf("x", samples) }
	lower := metric{name: "wall_s", better: "lower", bound: 0.10}
	higher := metric{name: "kevents_per_s", better: "higher", bound: 0.10}
	points := metric{name: "paper_err_pct", better: "lower", bound: 0.1, absolute: true}
	zero := metric{name: "fail_ratio", better: "lower", bound: 0, absolute: true}
	for _, tc := range []struct {
		name string
		m    metric
		a, b value
		want verdict
	}{
		{"same", lower, v(1.00, 1.01, 1.02), v(1.00, 1.01, 1.02), ok},
		{"within bound", lower, v(1.00, 1.01, 1.02), v(1.05, 1.06, 1.07), ok},
		{"slower by more than the bound", lower, v(1.00, 1.01, 1.02), v(1.20, 1.21, 1.22), worse},
		{"faster", lower, v(1.00, 1.01, 1.02), v(0.50, 0.51, 0.52), ok},
		{"noisy parent", lower, v(0.90, 1.00, 1.15), v(1.00, 1.01, 1.02), unresolved},
		{"noisy but every run better", lower, v(0.90, 1.00, 1.15), v(0.50, 0.60, 0.70), ok},
		{"throughput down", higher, v(100, 101, 102), v(80, 81, 82), worse},
		{"throughput up", higher, v(100, 101, 102), v(120, 121, 122), ok},
		{"error up 0.05 points", points, v(7.80), v(7.85), ok},
		{"error up 0.2 points", points, v(7.80), v(8.00), worse},
		{"first failure", zero, v(0), v(0.01), worse},
		{"no failure", zero, v(0), v(0), ok},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string, wall ...float64) string {
		r := &results{Seed: 1, Workloads: map[string]*workloadResult{"bt_onchip": {
			Workload: "bt_onchip", Seed: 1, SimDigest: digest,
			EndToEnd: map[string]value{"wall_s": valueOf("s", wall)},
		}}}
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", "aa", 3.0, 3.1, 3.2)
	for _, tc := range []struct {
		name    string
		path    string
		wantBad bool
		want    string
	}{
		{"A/A", write("same.json", "aa", 3.0, 3.1, 3.2), false, "ok"},
		{"slower", write("slow.json", "aa", 4.0, 4.1, 4.2), true, "worse"},
		{"digest moved", write("moved.json", "bb", 3.0, 3.1, 3.2), true, "MISMATCH"},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.wantBad || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: bad = %v, want %v, and %q in:\n%s", tc.name, bad, tc.wantBad, tc.want, out.String())
		}
	}
	if code := run([]string{"-compare", base}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("-compare with one file exited 0")
	}
}
