// Command vscctrace inspects a Chrome trace-event JSON file written by
// the -trace flag of cmd/pingpong, cmd/npbbt, cmd/ablate, cmd/taskbench
// or cmd/vsccd — a terminal-side answer to "what is in this trace"
// without loading about://tracing or Perfetto.
//
// For every process (one per capture/subsystem pair) it prints the
// thread rows with their span counts and busy cycles, the top span
// names by total duration, and the final counter values.
//
// With -recovery it instead tabulates the device fault/recovery ledger:
// per device, the injected device faults, rejoins, epoch advances,
// checkpoints, checkpoint-restore and PCIe-replay volumes, the job-level
// recovery work (devretry requeues and exhausted budgets from the
// scheduler, task re-executions from the task runtime), plus the other
// per-device recovery actions — the terminal-side summary of a
// crash-recovery run (fault spec devcrash=.../devlinkdown=...). The
// ledger is tallied per source file first and identical per-device
// ledgers are counted once across files, so handing vscctrace a merged
// export alongside one of its sources does not double-count.
//
// With -tenant N the event stream is restricted to tenant N of a
// multi-tenant run (cmd/vsccd): tracks whose thread carries the
// tenant's tag and the tenant's ".tNNN" counters, with process names
// kept for orientation. The filter composes with the span view and
// -merge (exporting one tenant's trace).
//
// Several trace files — e.g. the per-kernel captures of a PDES run —
// may be given together: their events are merged into one canonically
// ordered stream (stable sort by cycle, then kernel id parsed from the
// capture label's /k<N> component, then span sequence within each
// file), so the analysis and the -merge export are deterministic
// functions of the input set. -recovery sums the ledger across files.
//
// Usage:
//
//	vscctrace trace.json
//	vscctrace -top 5 trace.json
//	vscctrace -recovery trace.json
//	vscctrace -tenant 3 trace.json
//	vscctrace -merge merged.json k0.json k1.json khost.json
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vscc/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vscctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "span names to list per process, by total duration")
	recovery := fs.Bool("recovery", false, "print the per-device fault/recovery ledger instead of the span view")
	tenant := fs.Int("tenant", -1, "restrict the stream to this tenant's tracks and counters (-1 off)")
	mergeOut := fs.String("merge", "", "write the merged, canonically ordered trace to FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: vscctrace [-top N] [-recovery] [-tenant N] [-merge out.json] trace.json [more.json ...]")
		return 2
	}
	events, err := loadMerged(fs.Args())
	if err == nil && *tenant >= 0 {
		events = filterTenant(events, *tenant)
	}
	if err == nil && *mergeOut != "" {
		err = writeMerged(*mergeOut, events)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vscctrace:", err)
		return 1
	}
	if *recovery {
		printRecovery(stdout, recoveryLedgers(events))
		return 0
	}
	source := fs.Arg(0)
	if fs.NArg() > 1 {
		source = fmt.Sprintf("%d files", fs.NArg())
	}
	printSpans(stdout, source, events, *top)
	return 0
}

// kernelLabel extracts the kernel id from a capture label: /k<N>/ maps
// to N, /khost to a sentinel sorting after every device kernel.
var kernelLabel = regexp.MustCompile(`/k(\d+|host)(/|$)`)

const hostKernel = 1 << 30

// taggedEvent carries the canonical merge keys alongside one event:
// the source file index, the kernel id of its process (from the
// capture label) and its span sequence number (emission order within
// its source file).
type taggedEvent struct {
	trace.Event
	file   int
	kernel int
	seq    int
}

// loadMerged reads every file and returns one canonically ordered
// event stream: a stable sort by cycle, then kernel id, then source
// file, then per-file span sequence. Pids are remapped to be globally
// unique, numbered by first appearance in the canonical order — so
// analysing the merged stream (or a -merge output re-read later) is
// idempotent, independent of how events were split across input files.
func loadMerged(paths []string) ([]taggedEvent, error) {
	var merged []taggedEvent
	for fi, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		events, err := trace.ReadChrome(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// The kernel id of each original pid comes from its
		// process_name metadata record.
		kern := map[int]int{}
		for _, ev := range events {
			if ev.Ph == "M" && ev.Name == "process_name" {
				if m := kernelLabel.FindStringSubmatch(ev.Args.Name); m != nil {
					if m[1] == "host" {
						kern[ev.Pid] = hostKernel
					} else {
						n, _ := strconv.Atoi(m[1])
						kern[ev.Pid] = n
					}
				}
			}
		}
		for i, ev := range events {
			kid, ok := kern[ev.Pid]
			if !ok {
				// No kernel label (classic single-kernel capture):
				// order by original pid, after labelled kernels of the
				// same cycle for stability across mixed inputs.
				kid = hostKernel + 1 + ev.Pid
			}
			merged = append(merged, taggedEvent{Event: ev, file: fi, kernel: kid, seq: i})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.kernel != b.kernel {
			return a.kernel < b.kernel
		}
		if a.file != b.file {
			return a.file < b.file
		}
		return a.seq < b.seq
	})
	// Renumber pids by first appearance in canonical order.
	type srcPid struct{ file, pid int }
	remap := map[srcPid]int{}
	for i := range merged {
		key := srcPid{merged[i].file, merged[i].Pid}
		np, ok := remap[key]
		if !ok {
			np = len(remap)
			remap[key] = np
		}
		merged[i].Pid = np
	}
	return merged, nil
}

// writeMerged exports the canonical stream through the exporter's own
// encoder, so a merged file round-trips through vscctrace and the
// browser tools alike.
func writeMerged(path string, events []taggedEvent) error {
	evs := make([]trace.Event, len(events))
	for i := range events {
		evs[i] = events[i].Event
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteEvents(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// thread aggregates one tid's rows.
type thread struct {
	name     string
	spans    int
	busy     uint64
	instants int
}

// process aggregates one pid.
type process struct {
	name     string
	threads  map[int]*thread
	spanDur  map[string]uint64 // total duration by span name
	spanCnt  map[string]int
	counters map[string]int64 // final value by counter name
}

// printSpans renders the span view: per process, its thread rows, the
// top span names by total duration and the final counter values.
func printSpans(w io.Writer, source string, events []taggedEvent, top int) {
	procs := map[int]*process{}
	getThread := func(p *process, tid int) *thread {
		t, ok := p.threads[tid]
		if !ok {
			t = &thread{}
			p.threads[tid] = t
		}
		return t
	}
	for _, ev := range events {
		p, ok := procs[ev.Pid]
		if !ok {
			p = &process{
				threads: map[int]*thread{},
				spanDur: map[string]uint64{}, spanCnt: map[string]int{},
				counters: map[string]int64{},
			}
			procs[ev.Pid] = p
		}
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				p.name = ev.Args.Name
			case "thread_name":
				getThread(p, ev.Tid).name = ev.Args.Name
			}
		case "X":
			t := getThread(p, ev.Tid)
			t.spans++
			t.busy += ev.Dur
			p.spanCnt[ev.Name]++
			p.spanDur[ev.Name] += ev.Dur
		case "i":
			getThread(p, ev.Tid).instants++
		case "C":
			// Events are time-ordered per counter, so the last sample
			// wins — the final value.
			p.counters[ev.Name] = ev.Args.Value
		}
	}

	fmt.Fprintf(w, "%s: %d events, %d processes\n", source, len(events), len(procs))
	for _, pid := range slices.Sorted(maps.Keys(procs)) {
		p := procs[pid]
		fmt.Fprintf(w, "\npid %d: %s\n", pid, p.name)
		for _, tid := range slices.Sorted(maps.Keys(p.threads)) {
			t := p.threads[tid]
			if t.spans == 0 && t.instants == 0 && t.name == "" {
				continue
			}
			fmt.Fprintf(w, "  tid %-3d %-24s spans=%-7d busy=%-12d", tid, t.name, t.spans, t.busy)
			if t.instants > 0 {
				fmt.Fprintf(w, " instants=%d", t.instants)
			}
			fmt.Fprintln(w)
		}
		if len(p.spanDur) > 0 {
			names := slices.Sorted(maps.Keys(p.spanDur))
			sort.SliceStable(names, func(i, j int) bool { return p.spanDur[names[i]] > p.spanDur[names[j]] })
			if len(names) > top {
				names = names[:top]
			}
			fmt.Fprintln(w, "  top spans by total duration:")
			for _, n := range names {
				fmt.Fprintf(w, "    %-32s n=%-7d total=%d cycles\n", n, p.spanCnt[n], p.spanDur[n])
			}
		}
		if len(p.counters) > 0 {
			fmt.Fprintln(w, "  final counters:")
			for _, n := range slices.Sorted(maps.Keys(p.counters)) {
				fmt.Fprintf(w, "    %-36s %12d\n", n, p.counters[n])
			}
		}
	}
}

// devCounter matches the per-device mirror counters the injector and the
// membership manager emit ("fault.recover.rejoin.d1", "ckpt.take.d0",
// "replay.frames.d2", ...).
var devCounter = regexp.MustCompile(`^(.+)\.d(\d+)$`)

// ledgerColumns are the -recovery table's columns: the header, its width
// and the per-device counter (base name, before the ".dN" suffix) the
// column sums. A counter ending in "*" sums every counter under that
// prefix.
var ledgerColumns = [...]struct {
	head    string
	width   int
	counter string
}{
	{"crash", 7, "fault.inject.devcrash"},
	{"linkdn", 7, "fault.inject.devlinkdown"},
	{"rejoin", 7, "fault.recover.rejoin"},
	{"epoch", 7, "epoch.advance"},
	{"ckpt", 7, "ckpt.take"},
	{"replay.wr", 10, "replay.writes"}, // stores in the restored image past its checkpoint
	{"replay.bytes", 12, "replay.bytes"},
	{"pcie.fr", 10, "replay.frames"}, // held SIF frames, re-driven
	{"pcie.bytes", 12, "replay.frame_bytes"},
	{"requeued", 8, "sched.requeued"},       // devretry jobs readmitted off the device
	{"exhaust", 7, "sched.retry_exhausted"}, // devretry budgets spent on the device
	{"reexec", 7, "taskrt.reexec"},          // tasks re-issued off the device
	{"injected", 9, "fault.inject.*"},
	{"recovered", 9, "fault.recover.*"},
}

// devLedger is one device's recovery tally across every process of the
// trace, one entry per ledgerColumns column.
type devLedger [len(ledgerColumns)]int64

// add folds one final counter value into every column that sums it.
func (l *devLedger) add(base string, v int64) {
	for i, c := range ledgerColumns {
		if prefix, ok := strings.CutSuffix(c.counter, "*"); ok {
			if len(base) > len(prefix) && strings.HasPrefix(base, prefix) {
				l[i] += v
			}
		} else if base == c.counter {
			l[i] += v
		}
	}
}

// recoveryLedgers tallies the per-device fault/recovery counters from
// the merged stream. Values are aggregated per source file first (last
// sample of each counter within a file wins, processes summed), and
// only then combined across files — a file whose ledger for a device is
// identical to one already counted is skipped. Without that step the
// same device ledger appearing in two merged inputs (a merged export
// handed in next to one of its source captures, or the same capture
// listed twice) doubled every checkpoint and replay figure.
func recoveryLedgers(events []taggedEvent) map[int]*devLedger {
	type counterKey struct {
		file, pid int
		name      string
	}
	final := map[counterKey]int64{}
	var order []counterKey
	for _, te := range events {
		if te.Ph != "C" {
			continue
		}
		k := counterKey{te.file, te.Pid, te.Name}
		if _, ok := final[k]; !ok {
			order = append(order, k)
		}
		final[k] = te.Args.Value
	}
	perFile := map[int]map[int]*devLedger{}
	for _, k := range order {
		m := devCounter.FindStringSubmatch(k.name)
		if m == nil {
			continue
		}
		dev, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		fl := perFile[k.file]
		if fl == nil {
			fl = map[int]*devLedger{}
			perFile[k.file] = fl
		}
		l := fl[dev]
		if l == nil {
			l = &devLedger{}
			fl[dev] = l
		}
		l.add(m[1], final[k])
	}
	out := map[int]*devLedger{}
	seen := map[int]map[devLedger]bool{}
	for _, f := range slices.Sorted(maps.Keys(perFile)) {
		for _, d := range slices.Sorted(maps.Keys(perFile[f])) {
			l := *perFile[f][d]
			if seen[d] == nil {
				seen[d] = map[devLedger]bool{}
			}
			if seen[d][l] {
				continue
			}
			seen[d][l] = true
			o := out[d]
			if o == nil {
				o = &devLedger{}
				out[d] = o
			}
			for i := range l {
				o[i] += l[i]
			}
		}
	}
	return out
}

// filterTenant restricts the stream to one tenant: spans and instants
// on tracks whose thread name carries the tenant tag, counters with the
// tenant's ".tNNN" component, thread metadata of the kept tracks, and
// every process_name record (so the remaining events stay attributable).
func filterTenant(events []taggedEvent, id int) []taggedEvent {
	type track struct{ pid, tid int }
	keep := map[track]bool{}
	for _, te := range events {
		if te.Ph == "M" && te.Name == "thread_name" && trace.HasTenantTag(te.Args.Name, id) {
			keep[track{te.Pid, te.Tid}] = true
		}
	}
	var out []taggedEvent
	for _, te := range events {
		switch te.Ph {
		case "M":
			if te.Name == "process_name" || keep[track{te.Pid, te.Tid}] {
				out = append(out, te)
			}
		case "X", "i":
			if keep[track{te.Pid, te.Tid}] {
				out = append(out, te)
			}
		case "C":
			if trace.HasTenantTag(te.Name, id) {
				out = append(out, te)
			}
		}
	}
	return out
}

// printRecovery renders the per-device fault/recovery table.
func printRecovery(w io.Writer, ledgers map[int]*devLedger) {
	if len(ledgers) == 0 {
		fmt.Fprintln(w, "no per-device fault/recovery counters in this trace (run with -trace and a -fault schedule)")
		return
	}
	fmt.Fprintf(w, "%-4s", "dev")
	for _, c := range ledgerColumns {
		fmt.Fprintf(w, " %*s", c.width, c.head)
	}
	fmt.Fprintln(w)
	for _, d := range slices.Sorted(maps.Keys(ledgers)) {
		fmt.Fprintf(w, "d%-3d", d)
		for i, c := range ledgerColumns {
			fmt.Fprintf(w, " %*d", c.width, ledgers[d][i])
		}
		fmt.Fprintln(w)
	}
}
