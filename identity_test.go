// The identity gate: every claim that a run of the simulator is
// deterministic, made from one table of named scenarios.
//
// A scenario is one command line of the repository's binaries. Its
// variants are other command lines — more workers (-parallel N), more
// PDES workers (-pdes N), or a plain rerun — whose stdout and -trace
// file must be byte-equal to the base run's. Its facts are what the
// outputs must state: the fault was injected and recovered, the job
// summary, the per-device recovery ledger read by column name, the
// tenant filter, and the vscctrace -recovery/-merge views over the
// scenario's own trace files.
//
// The commands are package main, so the gate builds them once per test
// run and runs the real binaries, each scenario in its own temporary
// directory. Scenarios share no process state and run in parallel.
// -short runs the tier-1 subset; `go test -run Identity .` runs the whole
// table.
package vscc_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// scenario is one row of the identity table.
type scenario struct {
	name string
	// short rows also run under -short.
	short bool
	// cmd is the base command line: a binary of cmd/ and its flags.
	cmd string
	// traced runs every command line with -trace FILE of its own.
	traced bool
	// variants are flags appended to cmd; each variant's stdout and
	// trace must be byte-equal to the base run's. "" is a plain rerun.
	variants []string
	facts    []fact
}

// fact is one assertion on a scenario's finished runs.
type fact func(t *testing.T, r *runs)

var identityTable = []scenario{
	{
		name:     "pingpong-traced",
		short:    true,
		cmd:      "pingpong -interdevice -sizes 1024,8192 -reps 1 -parallel 1 -metrics",
		traced:   true,
		variants: []string{"-parallel 4"},
		facts:    []fact{sameView("-top", "3")},
	},
	{
		name:     "pingpong-onchip",
		short:    true,
		cmd:      "pingpong -onchip -sizes 64,1024,8192 -reps 2 -parallel 1 -metrics",
		variants: []string{"-parallel 4"},
	},
	{
		name:     "bt-pdes",
		short:    true,
		cmd:      "npbbt -app bt -class S -counts 64 -worst=false -pdes 1 -metrics",
		traced:   true,
		variants: []string{"-pdes 4"},
	},
	{
		name:     "bt-pdes-devcrash",
		cmd:      "npbbt -app bt -class S -counts 64 -worst=false -pdes 1 -fault seed=1,devcrash=400000:1:500000 -metrics",
		traced:   true,
		variants: []string{"-pdes 4"},
		facts: []fact{
			says(`fault\.inject\.devcrash`, `fault\.recover\.rejoin`),
			sameView("-recovery"),
			mergeIsCanonical,
			ledgerDedupes,
		},
	},
	{
		// Classic engine, timing mode; the 64-rank point spans two
		// devices under vDMA.
		name:     "bt-classic",
		cmd:      "npbbt -class W -iters 1 -counts 4,9,16,64 -worst=false -parallel 1 -metrics",
		variants: []string{"-parallel 4"},
	},
	{
		name:     "taskrt-stencil",
		short:    true,
		cmd:      "taskbench -workload stencil -schemes vdma -devices 2 -ranks 4 -size 4 -iters 6 -replicas 4 -parallel 1 -metrics",
		traced:   true,
		variants: []string{"-parallel 4"},
		facts:    []fact{replicasAgree(4)},
	},
	{
		name:     "taskrt-stencil-devcrash",
		short:    true,
		cmd:      "taskbench -workload stencil -schemes vdma -devices 2 -ranks 4 -size 4 -iters 6 -replicas 4 -parallel 1 -fault seed=1,devcrash=150000:1:200000,ckpt=50000,devretry=1 -metrics",
		traced:   true,
		variants: []string{"-parallel 4"},
		facts: []fact{
			says(`(?m)^inject\.devcrash=1$`, `(?m)^recover\.rejoin=1$`, `fault\.inject\.devcrash`),
			replicasAgree(4),
			faultFreeHashes,
		},
	},
	{
		name:     "mixed50",
		cmd:      "vsccd -workload workloads/mixed50.jobs -replicas 2 -metrics",
		traced:   true,
		variants: []string{"-parallel 2"},
		facts:    []fact{says(`summary: jobs=54 ok=54 `, `identity: 2 replica\(s\) byte-identical`)},
	},
	{
		name:     "mixed50-devcrash",
		cmd:      "vsccd -workload workloads/mixed50.jobs -replicas 2 -fault seed=7,devcrash=600000:4:5000000,budget=400000,waitretries=2 -assert-isolation 4 -metrics",
		traced:   true,
		variants: []string{""},
		facts: []fact{
			says(`span-b .* ok +1`,
				`summary: jobs=54 ok=54 rejected=0 device-lost=0 failed=0 requeued=1 `,
				`isolation: device 4 fault domain contained`,
				`engine: ok`),
			sameView("-recovery"),
			ledger("d4", "requeued", 1, 1),
			tenantView(2, "span-b", "hold-a"),
		},
	},
	{
		name:   "crash-ledger",
		cmd:    "pingpong -interdevice -sizes 4096 -reps 40 -fault seed=7,devcrash=200000:1,devretry=1",
		traced: true,
		facts:  []fact{ledger("d1", "rejoin", 1, math.MaxInt64)},
	},
	{
		name:     "chaos",
		cmd:      "chaos -seed 1 -n 16",
		variants: []string{""},
		facts:    []fact{says(`all invariants held`)},
	},
}

func TestIdentity(t *testing.T) {
	var rows []scenario
	bins := map[string]bool{"vscctrace": true}
	for _, sc := range identityTable {
		if sc.short || !testing.Short() {
			rows = append(rows, sc)
			bins[strings.Fields(sc.cmd)[0]] = true
		}
	}
	var pkgs []string
	for _, name := range slices.Sorted(maps.Keys(bins)) {
		pkgs = append(pkgs, "./cmd/"+name)
	}
	bin := t.TempDir()
	command(t, "", "go", append([]string{"build", "-o", bin}, pkgs...)...)
	// go test replays a passing result while the test binary and the
	// module files the test read are unchanged. The commands are built
	// outside the test binary, so the test reads their sources.
	srcs := command(t, "", "go", append([]string{"list", "-deps", "-f",
		"{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}\n{{end}}{{end}}"}, pkgs...)...)
	for _, src := range strings.Fields(srcs) {
		if _, err := os.ReadFile(src); err != nil {
			t.Fatal(err)
		}
	}
	workloads, err := filepath.Abs("workloads")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range rows {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			r := &runs{bin: bin, dir: t.TempDir(), cmd: strings.Fields(sc.cmd)}
			if err := os.Symlink(workloads, filepath.Join(r.dir, "workloads")); err != nil {
				t.Fatal(err)
			}
			for i, v := range append([]string{""}, sc.variants...) {
				args := append(slices.Clone(r.cmd), strings.Fields(v)...)
				trace := ""
				if sc.traced {
					trace = fmt.Sprintf("run%d.json", i)
					args = append(args, "-trace", trace)
				}
				r.stdout = append(r.stdout, r.exec(t, args...))
				r.traces = append(r.traces, trace)
				if i > 0 {
					what := fmt.Sprintf("with %q", v)
					sameBytes(t, "stdout "+what, r.stdout[0], r.stdout[i])
					if sc.traced {
						sameBytes(t, "trace "+what, r.read(t, r.traces[0]), r.read(t, trace))
					}
				}
			}
			for _, f := range sc.facts {
				f(t, r)
			}
		})
	}
}

// command runs name in dir and returns its stdout; a failure fails
// the test.
func command(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	c := exec.Command(name, args...)
	c.Dir = dir
	var stderr bytes.Buffer
	c.Stderr = &stderr
	out, err := c.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// runs is one scenario's finished runs: index 0 is the base command
// line, i > 0 its i-th variant.
type runs struct {
	bin, dir string
	cmd      []string
	stdout   []string
	traces   []string // trace file per run, relative to dir; "" untraced
}

// exec runs a built binary in the scenario's directory.
func (r *runs) exec(t *testing.T, args ...string) string {
	t.Helper()
	return command(t, r.dir, filepath.Join(r.bin, args[0]), args[1:]...)
}

func (r *runs) read(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(r.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameBytes fails with the first line at which got leaves want.
func sameBytes(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end>"
	}
	t.Errorf("%s differs at line %d (%d vs %d bytes):\nbase: %.300s\nthis: %.300s",
		what, i+1, len(want), len(got), line(wl), line(gl))
}

// says asserts that the base run's stdout matches every pattern.
func says(patterns ...string) fact {
	return func(t *testing.T, r *runs) {
		for _, p := range patterns {
			if !regexp.MustCompile(p).MatchString(r.stdout[0]) {
				t.Errorf("stdout does not match %q", p)
			}
		}
	}
}

// sameView asserts that vscctrace with flags prints the same view of
// every run's trace, but for the header line that names the file.
func sameView(flags ...string) fact {
	return func(t *testing.T, r *runs) {
		var base string
		for i, trace := range r.traces {
			view := body(r.exec(t, append(append([]string{"vscctrace"}, flags...), trace)...))
			if i == 0 {
				base = view
				continue
			}
			sameBytes(t, fmt.Sprintf("vscctrace %s of run %d", strings.Join(flags, " "), i), base, view)
		}
	}
}

// mergeIsCanonical asserts that vscctrace -merge over every trace of
// the scenario is deterministic (two merges write the same file and
// view) and idempotent (the merged file, read back alone, gives the
// same view but for its header line).
func mergeIsCanonical(t *testing.T, r *runs) {
	merge := func(out string) string {
		return r.exec(t, append([]string{"vscctrace", "-merge", out}, r.traces...)...)
	}
	viewA, viewB := merge("merged-a.json"), merge("merged-b.json")
	sameBytes(t, "merged trace", r.read(t, "merged-a.json"), r.read(t, "merged-b.json"))
	sameBytes(t, "merged view", viewA, viewB)
	sameBytes(t, "re-read merged view", body(viewA), body(r.exec(t, "vscctrace", "merged-a.json")))
}

// body drops a vscctrace view's first line.
func body(view string) string {
	_, rest, _ := strings.Cut(view, "\n")
	return rest
}

// ledgerDedupes asserts that a capture handed to vscctrace -recovery
// twice is counted once.
func ledgerDedupes(t *testing.T, r *runs) {
	once := r.exec(t, "vscctrace", "-recovery", r.traces[0])
	sameBytes(t, "ledger of a duplicated capture", once, r.exec(t, "vscctrace", "-recovery", r.traces[0], r.traces[0]))
}

// ledger asserts that device dev's column col of the base trace's
// vscctrace -recovery table lies in [lo, hi].
func ledger(dev, col string, lo, hi int64) fact {
	return func(t *testing.T, r *runs) {
		table := r.exec(t, "vscctrace", "-recovery", r.traces[0])
		lines := strings.Split(table, "\n")
		c := slices.Index(strings.Fields(lines[0]), col)
		if c < 0 {
			t.Fatalf("ledger has no column %q:\n%s", col, table)
		}
		for _, l := range lines[1:] {
			f := strings.Fields(l)
			if len(f) <= c || f[0] != dev {
				continue
			}
			v, err := strconv.ParseInt(f[c], 10, 64)
			if err != nil || v < lo || v > hi {
				t.Errorf("ledger %s %s = %q, want %d..%d:\n%s", dev, col, f[c], lo, hi, table)
			}
			return
		}
		t.Errorf("ledger has no row %s:\n%s", dev, table)
	}
}

// tenantView asserts that vscctrace -tenant id keeps job keep's span
// and drops job drop's.
func tenantView(id int, keep, drop string) fact {
	return func(t *testing.T, r *runs) {
		view := r.exec(t, "vscctrace", "-tenant", strconv.Itoa(id), r.traces[0])
		if !strings.Contains(view, keep) || strings.Contains(view, drop) {
			t.Errorf("tenant %d view: want %s and no %s:\n%s", id, keep, drop, view)
		}
	}
}

// replicasAgree asserts that a taskbench sweep prints n point lines
// that are equal but for their replica label.
func replicasAgree(n int) fact {
	return func(t *testing.T, r *runs) {
		var points []string
		for _, l := range strings.Split(r.stdout[0], "\n") {
			if strings.HasPrefix(l, "taskrt/") {
				points = append(points, l)
			}
		}
		if len(points) != n {
			t.Fatalf("%d replica lines, want %d", len(points), n)
		}
		for i, l := range points {
			if want := strings.Replace(points[0], "rep=00", fmt.Sprintf("rep=%02d", i), 1); l != want {
				t.Errorf("replica %d diverges:\n%s\nwant\n%s", i, l, want)
			}
		}
	}
}

var regionHash = regexp.MustCompile(`hash=[0-9a-f]+`)

// faultFreeHashes asserts that the faulted run converges to the region
// state of the same command line without its -fault flag.
func faultFreeHashes(t *testing.T, r *runs) {
	i := slices.Index(r.cmd, "-fault")
	clean := r.exec(t, slices.Delete(slices.Clone(r.cmd), i, i+2)...)
	set := func(s string) []string {
		return slices.Compact(slices.Sorted(slices.Values(regionHash.FindAllString(s, -1))))
	}
	if want, got := set(clean), set(r.stdout[0]); len(want) == 0 || !slices.Equal(want, got) {
		t.Errorf("region hashes %v, fault-free %v", got, want)
	}
}
