// Command bench is the repository's benchmark: seven named workloads
// measured end to end with tracing off (host wall time, kernel events
// per second, allocation, set-up time, failures, error against the
// paper, gap between the two engines), and layer by layer from one
// traced pass per workload plus a set of layer drivers. README.md in
// this directory says what each workload is for; BENCHMARK.json at the
// repository root is the contract later performance claims cite.
//
// Usage, from the repository root:
//
//	go run ./bench                      every workload, each in a child process, then the layer drivers
//	go run ./bench -workload bt_xdev    one workload's end-to-end metrics
//	go run ./bench -workload bt_xdev -trace 1   its traced pass plus short layer drivers
//	go run ./bench -workload bt_xdev -traced    its traced pass alone
//	go run ./bench -layers              the layer drivers alone, full-length batches
//	go run ./bench -compare a.json b.json       judge two result files written by -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vscc/internal/harness"
)

// outDir receives the span files and, from a full run, results.json.
const outDir = "bench/out"

// Batch lengths of the layer drivers: a full run measures each driver
// five times over 0.3 s; a traced run of one workload, which repeats the
// drivers only to report every per-layer metric in one place, over 20 ms.
const (
	fullBatch  = 300 * time.Millisecond
	shortBatch = 20 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all seven, each in a child process)")
	seed := fs.Uint64("seed", 1, "input seed; feeds the chaos campaign, the other workloads are fixed configurations")
	seconds := fs.Float64("seconds", 15, "time at least this many seconds of passes per workload (never fewer than 3 passes, each in a process of its own)")
	pass := fs.Int64("pass", 0, "internal, with -workload: run one timed pass, asked for at this Unix nanosecond, and print its report")
	traceMode := fs.Int("trace", 0, "with -workload: 0 = timed passes with tracing off, 1 = the traced pass and short layer drivers")
	traced := fs.Bool("traced", false, "with -workload: the traced pass alone")
	layers := fs.Bool("layers", false, "the layer drivers alone")
	out := fs.String("out", "", "write the results as JSON to this file (default for a full run: "+outDir+"/results.json)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	// One simulation at a time on one P. On the two-core reference box
	// the simulator is about a sixth slower on two Ps than on one, and
	// three times as noisy: a process handoff that crosses cores waits
	// for whatever else runs there (README "Why one P").
	runtime.GOMAXPROCS(1)
	harness.SetParallelism(1)

	var last string // the result line, printed after everything else
	res := &results{Host: hostInfo(), Seed: *seed, Workloads: map[string]*workloadResult{}}
	switch {
	case *layers:
		res.Layers = runLayers(fullBatch)
		printValues(stdout, "layer drivers: host ns per operation", driverMetrics(), res.Layers)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		if *pass != 0 {
			p, err := timedPass(w, fullScale(), *seed, time.Unix(0, *pass))
			if err != nil {
				return fail(err)
			}
			if err := json.NewEncoder(stdout).Encode(p); err != nil {
				return fail(err)
			}
			return 0
		}
		var wr *workloadResult
		var err error
		if *traced || *traceMode == 1 {
			if !*traced {
				// Before the passes: once the traced pass has grown the
				// heap, the drivers' per-batch collections double the run.
				res.Layers = runLayers(shortBatch)
			}
			wr, err = runTraced(w, fullScale(), *seed, outDir)
		} else {
			wr, err = runTimed(w, *seed, *seconds, passInChild(w, *seed, stderr))
		}
		if err != nil {
			return fail(err)
		}
		res.Workloads[w.name] = wr
		printWorkload(stdout, wr)
		if res.Layers != nil {
			printValues(stdout, "layer drivers: host ns per operation (short batches)", driverMetrics(), res.Layers)
		}
		last = resultLine(wr, res.Layers)
	default:
		if err := runAll(res, *seconds, stdout, stderr); err != nil {
			return fail(err)
		}
		if *out == "" {
			*out = filepath.Join(outDir, "results.json")
		}
	}
	if *out != "" {
		if err := res.write(*out); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "wrote", *out)
	}
	if last != "" {
		fmt.Fprintln(stdout, last)
	}
	return 0
}

// results is the layout of a result file (-out).
type results struct {
	Host      hostBlock                  `json:"host"`
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads,omitempty"`
	Layers    map[string]value           `json:"layers,omitempty"`
}

func (r *results) write(path string) error { return writeJSON(path, r) }

// writeJSON writes v, indented, to path, making the directory if need be.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// hostBlock describes the machine a result file's numbers come from.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostInfo() hostBlock {
	h := hostBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// passInChild returns the function that gets one timed pass of w from
// a fresh process of this program.
func passInChild(w workload, seed uint64, stderr io.Writer) func() (*passReport, error) {
	return func() (*passReport, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-pass", fmt.Sprint(time.Now().UnixNano()))
		cmd.Stderr = stderr
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: timed pass: %w", w.name, err)
		}
		var p passReport
		if err := json.Unmarshal(blob, &p); err != nil {
			return nil, fmt.Errorf("%s: timed pass report: %w", w.name, err)
		}
		return &p, nil
	}
}

// runAll is the full run: every workload's timed passes, its traced run
// in one more process so that it starts from an empty heap too, then the
// layer drivers at full length in this process.
func runAll(res *results, seconds float64, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads() {
		timed, err := runTimed(w, res.Seed, seconds, passInChild(w, res.Seed, stderr))
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, w.name+".traced.json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(res.Seed), "-traced", "-out", path)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		tr, err := readResults(path)
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		if err := merge(timed, tr.Workloads[w.name]); err != nil {
			return err
		}
		printWorkload(stdout, timed)
		res.Workloads[w.name] = timed
	}
	res.Layers = runLayers(fullBatch)
	printValues(stdout, "layer drivers: host ns per operation", driverMetrics(), res.Layers)
	printSummary(stdout, res)
	return nil
}

// merge folds a workload's traced run into its timed run: the per-layer
// metrics as they are, except the two accuracy metrics, which the traced
// run computes but -compare bounds, and which therefore move to the
// end-to-end set of the one workload each is defined on.
func merge(timed, tr *workloadResult) error {
	if tr.SimDigest != timed.SimDigest {
		return fmt.Errorf("%s: traced run has sim_digest %s, timed run %s", timed.Workload, tr.SimDigest, timed.SimDigest)
	}
	timed.PerLayer = tr.PerLayer
	for _, m := range endToEnd() {
		if m.only == "" {
			continue
		}
		if m.only == timed.Workload {
			timed.EndToEnd[m.name] = tr.PerLayer[m.name]
		}
		delete(timed.PerLayer, m.name)
	}
	return nil
}

// printSummary prints the end-to-end medians of a full run, one row per
// workload.
func printSummary(w io.Writer, res *results) {
	fmt.Fprintf(w, "\n-- end to end, medians --\n%-16s", "workload")
	for _, m := range endToEnd() {
		fmt.Fprintf(w, " %14s", m.name)
	}
	fmt.Fprintln(w)
	for _, name := range workloadNames() {
		fmt.Fprintf(w, "%-16s", name)
		for _, m := range endToEnd() {
			if v, ok := res.Workloads[name].EndToEnd[m.name]; ok {
				fmt.Fprintf(w, " %14.6g", v.Median)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// driverMetrics is the layer-driver half of perLayer.
func driverMetrics() []metric {
	var ms []metric
	for _, m := range perLayer() {
		if m.source == "driver" {
			ms = append(ms, m)
		}
	}
	return ms
}

// printWorkload prints every metric one workload's run produced, by
// name, with unit, median, range and sample count.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d attempted, %d failed ==\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	fmt.Fprintf(w, "sim_digest %s%s\n", r.SimDigest, recordedNote(r))
	if r.EndToEnd != nil {
		printValues(w, "end to end, tracing off", endToEnd(), r.EndToEnd)
	}
	if r.PerLayer != nil {
		printValues(w, "per layer, from the traced pass", tracedMetrics(), r.PerLayer)
	}
}

func printValues(w io.Writer, title string, defs []metric, vals map[string]value) {
	fmt.Fprintf(w, "-- %s --\n", title)
	fmt.Fprintf(w, "%-34s %-10s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %-10s %14.6g %14.6g %14.6g %3d", m.name, v.Unit, v.Median, v.Min, v.Max, v.N)
		if v.AllocsPerOp != nil {
			fmt.Fprintf(w, "  %.2f allocs/op", *v.AllocsPerOp)
		}
		fmt.Fprintln(w)
	}
}

// resultLine renders the run as the one JSON object a driving script
// reads from the last line of standard output.
func resultLine(r *workloadResult, layers map[string]value) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.EndToEnd != nil {
		for _, m := range endToEnd()[:contractEndToEnd] {
			metrics[m.name] = mv{r.EndToEnd[m.name].Median, m.unit}
		}
	}
	for name, v := range r.PerLayer {
		metrics[name] = mv{v.Median, v.Unit}
	}
	for name, v := range layers {
		metrics[name] = mv{v.Median, v.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(blob)
}
