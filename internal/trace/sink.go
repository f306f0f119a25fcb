// sink.go implements the cycle-accurate event sink behind the simulator's
// observability layer: named tracks carrying spans (intervals of simulated
// time), monotonic counters, gauges and histograms, all timestamped by the
// deterministic kernel clock. Because every record call happens under the
// kernel's run-to-completion discipline, the event order — and therefore
// every export — is byte-reproducible across runs.
//
// A nil *Sink is the disabled state: every method is a nil-receiver no-op,
// so instrumented model code calls the sink unconditionally and pays one
// predictable-branch nil check and zero allocations when tracing is off.
package trace

import (
	"sort"
	"sync"

	"vscc/internal/sim"
)

// Track identifies one row of the trace: a (process, thread) pair in
// Chrome-trace terms — for example ("pcie", "pcie.d0.d2h") or
// ("commtask", "d1"). NoTrack is returned by a disabled sink.
type Track int32

// NoTrack is the track id handed out by a nil (disabled) sink. Recording
// against it is a no-op.
const NoTrack Track = -1

// trackInfo names a track.
type trackInfo struct {
	process string
	thread  string
}

// spanEvent is one recorded interval.
type spanEvent struct {
	track Track
	name  string
	from  sim.Cycles
	to    sim.Cycles
}

// counterSample is one point of a counter/gauge time series.
type counterSample struct {
	name  string
	at    sim.Cycles
	value int64
}

// Sink accumulates observability events for one simulation kernel. It is
// not safe for concurrent use from multiple kernels; every kernel in a
// parallel sweep gets its own sink (see Collector).
type Sink struct {
	k *sim.Kernel

	trackIDs map[string]Track
	tracks   []trackInfo

	spans   []spanEvent
	samples []counterSample

	counters     map[string]int64
	counterNames []string // deterministic first-use order

	hists     map[string][]float64
	histNames []string
}

// NewSink returns an enabled sink timestamped by k's clock.
func NewSink(k *sim.Kernel) *Sink {
	return &Sink{
		k:        k,
		trackIDs: make(map[string]Track),
		counters: make(map[string]int64),
		hists:    make(map[string][]float64),
	}
}

// Enabled reports whether the sink records anything. It is the idiom for
// guarding instrumentation that needs to build labels:
//
//	if sink.Enabled() { sink.Span(tr, fmt.Sprintf(...), from, to) }
func (s *Sink) Enabled() bool { return s != nil }

// Track registers (or looks up) a named track and returns its id. Ids are
// assigned in first-registration order, so a deterministic simulation
// yields deterministic ids.
func (s *Sink) Track(process, thread string) Track {
	if s == nil {
		return NoTrack
	}
	key := process + "\x00" + thread
	if id, ok := s.trackIDs[key]; ok {
		return id
	}
	id := Track(len(s.tracks))
	s.trackIDs[key] = id
	s.tracks = append(s.tracks, trackInfo{process: process, thread: thread})
	return id
}

// Span records a completed interval [from, to] on a track.
func (s *Sink) Span(t Track, name string, from, to sim.Cycles) {
	if s == nil || t == NoTrack {
		return
	}
	s.spans = append(s.spans, spanEvent{track: t, name: name, from: from, to: to})
}

// Add bumps a monotonic counter and records the new value as a
// time-series sample (a Chrome "C" event).
func (s *Sink) Add(name string, delta int64) {
	if s == nil {
		return
	}
	v, ok := s.counters[name]
	if !ok {
		s.counterNames = append(s.counterNames, name)
	}
	v += delta
	s.counters[name] = v
	s.samples = append(s.samples, counterSample{name: name, at: s.k.Now(), value: v})
}

// Gauge records the absolute current value of a quantity (queue depth,
// in-flight transactions). The final value is reported alongside the
// counters.
func (s *Sink) Gauge(name string, value int64) {
	if s == nil {
		return
	}
	if _, ok := s.counters[name]; !ok {
		s.counterNames = append(s.counterNames, name)
	}
	s.counters[name] = value
	s.samples = append(s.samples, counterSample{name: name, at: s.k.Now(), value: value})
}

// Observe adds a sample to a named histogram (message sizes, flush burst
// sizes, queueing delays). Histograms appear only in the metrics report,
// not in the Chrome export.
func (s *Sink) Observe(name string, v float64) {
	if s == nil {
		return
	}
	if _, ok := s.hists[name]; !ok {
		s.histNames = append(s.histNames, name)
	}
	s.hists[name] = append(s.hists[name], v)
}

// CounterValue returns the current value of a counter or gauge.
func (s *Sink) CounterValue(name string) int64 {
	if s == nil {
		return 0
	}
	return s.counters[name]
}

// HistogramSamples returns a copy of a histogram's samples.
func (s *Sink) HistogramSamples(name string) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s.hists[name]...)
}

// SpanCount returns the number of recorded spans.
func (s *Sink) SpanCount() int {
	if s == nil {
		return 0
	}
	return len(s.spans)
}

// Capture pairs a sink with the label of the simulation it observed; a
// multi-point sweep produces one capture per point.
type Capture struct {
	Name string
	Sink *Sink
}

// Collector gathers per-point sinks from a (possibly parallel) sweep.
// Registration is mutex-protected; Captures returns them sorted by name,
// so the merged export does not depend on sweep completion order.
type Collector struct {
	mu   sync.Mutex
	caps []Capture
}

// New creates, registers and returns a sink for one labelled simulation.
// It is shaped to plug into harness.SetObserver.
func (c *Collector) New(name string, k *sim.Kernel) *Sink {
	s := NewSink(k)
	c.mu.Lock()
	c.caps = append(c.caps, Capture{Name: name, Sink: s})
	c.mu.Unlock()
	return s
}

// Captures returns the registered captures sorted by name.
func (c *Collector) Captures() []Capture {
	c.mu.Lock()
	out := append([]Capture(nil), c.caps...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
