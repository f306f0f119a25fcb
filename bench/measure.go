package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vscc/internal/harness"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// probe is the benchmark's view into one pass. It is installed as the
// harness observer: every kernel a measurement builds is handed to
// observe, which remembers it so Kernel.Events can be read once the
// point has run, and returns a nil sink — tracing stays off — unless
// the pass is the traced one.
type probe struct {
	mu       sync.Mutex
	col      *trace.Collector // nil: tracing off
	live     []*sim.Kernel    // kernels of the harness call in flight
	events   uint64
	cycles   uint64
	counters map[string]int64
}

func (p *probe) observe(label string, k *sim.Kernel) *trace.Sink {
	p.mu.Lock()
	p.live = append(p.live, k)
	p.mu.Unlock()
	if p.col == nil {
		return nil
	}
	return p.col.New(label, k)
}

// settle folds the finished kernels into the totals and drops them, so
// a pass never keeps more simulated systems alive than one harness call
// builds.
func (p *probe) settle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, k := range p.live {
		p.events += k.Events()
		p.cycles += uint64(k.Now())
		p.live[i] = nil
	}
	p.live = p.live[:0]
}

// addReport folds one trace.Sink.MetricsReport text into the probe: the
// counters when the pass is traced, and — for kernels the benchmark
// never sees, which is every chaos target's — the kernel's event count
// and end cycle from the report's first line.
func (p *probe) addReport(report string, kernelToo bool) error {
	events, cycles, err := parseReport(report, p.counters)
	if err != nil {
		return err
	}
	if kernelToo {
		p.events += events
		p.cycles += cycles
	}
	return nil
}

// parseReport reads the header line of a metrics report
// (internal/trace/report.go) and, when counters is not nil, adds the
// report's counters section to it.
func parseReport(report string, counters map[string]int64) (events, cycles uint64, err error) {
	inCounters := false
	seenHeader := false
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "simulated time: "); ok {
			if _, err := fmt.Sscanf(rest, "%d cycles, kernel events: %d", &cycles, &events); err != nil {
				return 0, 0, fmt.Errorf("metrics report header %q: %w", line, err)
			}
			seenHeader = true
			if counters == nil {
				break
			}
			continue
		}
		if !strings.HasPrefix(line, "  ") {
			inCounters = line == "counters:"
			continue
		}
		if !inCounters {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, perr := strconv.ParseInt(f[1], 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("metrics report counter %q: %w", line, perr)
		}
		counters[f[0]] += v
	}
	if !seenHeader {
		return 0, 0, fmt.Errorf("metrics report has no \"simulated time\" line")
	}
	return events, cycles, nil
}

// env is what a workload's pass function works with: its inputs, the
// probe, and the outputs it fills in.
type env struct {
	sc    scale
	seed  uint64
	input any
	probe *probe
	spans *spanLog // nil: no spans
	pass  int      // span id of the enclosing pass

	attempted, failed int
	digest            *digest
	sim               map[string]float64 // simulated results and model-side stats, by per-layer metric name
	btCycles          uint64             // BTPoint.Cycles, for engine_gap_pct
}

// call wraps one call into a layer: a host-time span around it when the
// pass records spans, and the kernels it built settled after it.
func (e *env) call(layer, what string, fn func() error) error {
	id := e.spans.begin(layer+"/"+what, e.pass)
	err := fn()
	e.spans.end(id)
	e.probe.settle()
	return err
}

// passStats is everything one pass produced.
type passStats struct {
	wallS      float64
	events     uint64
	cycles     uint64
	allocBytes uint64
	attempted  int
	digest     string
	sim        map[string]float64
	btCycles   uint64
	counters   map[string]int64 // traced pass only
	captures   []trace.Capture  // traced pass only
}

// runPass runs w once. With spans set it is the traced pass: a
// collector hands every kernel an enabled sink and the calls into the
// layers are recorded as spans under one pass span.
func runPass(w workload, sc scale, seed uint64, input any, spans *spanLog) (*passStats, error) {
	pr := &probe{}
	if spans != nil {
		pr.col = &trace.Collector{}
		pr.counters = map[string]int64{}
	}
	e := &env{sc: sc, seed: seed, input: input, probe: pr, spans: spans,
		digest: newDigest(), sim: map[string]float64{}}
	defer harness.SetObserver(harness.SetObserver(pr.observe))

	// Start every pass from a collected heap, so that one pass's garbage
	// is not collected on the next pass's clock.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	e.pass = spans.begin("pass/"+w.name, 0)
	err := w.pass(e)
	spans.end(e.pass)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if e.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed", w.name, e.failed, e.attempted)
	}
	st := &passStats{
		wallS: wall.Seconds(), events: pr.events, cycles: pr.cycles,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		attempted:  e.attempted,
		digest:     e.digest.sum(), sim: e.sim, btCycles: e.btCycles,
	}
	if pr.col != nil {
		st.captures = pr.col.Captures()
		for _, c := range st.captures {
			if err := pr.addReport(c.Sink.MetricsReport(), false); err != nil {
				return nil, err
			}
		}
		st.counters = pr.counters
	}
	return st, nil
}
