package trace

import (
	"strings"
	"testing"

	"vscc/internal/sim"
)

// The disabled path must be free: a nil *Sink accepts every call as a
// no-op without allocating, so instrumented model code runs untouched
// when tracing is off.
func TestNilSinkIsFreeNoOp(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	tr := s.Track("noc", "link0")
	if tr != NoTrack {
		t.Fatalf("nil sink track = %d, want NoTrack", tr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Span(tr, "xfer", 0, 10)
		s.Add("bytes", 64)
		s.Gauge("depth", 3)
		s.Observe("size", 64)
		_ = s.CounterValue("bytes")
		_ = s.SpanCount()
	})
	if allocs != 0 {
		t.Errorf("disabled sink allocates %.1f per call batch, want 0", allocs)
	}
	if s.CounterValue("bytes") != 0 || s.SpanCount() != 0 || s.HistogramSamples("size") != nil {
		t.Error("nil sink retained state")
	}
}

// Recording against NoTrack (handed out by a disabled sink) must be a
// no-op even on an enabled sink, so mixed instrumented/uninstrumented
// components compose.
func TestSpanOnNoTrackIgnored(t *testing.T) {
	s := NewSink(sim.NewKernel())
	s.Span(NoTrack, "xfer", 0, 10)
	if s.SpanCount() != 0 {
		t.Errorf("spans on NoTrack recorded: %d", s.SpanCount())
	}
}

func TestSinkRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	s := NewSink(k)
	if !s.Enabled() {
		t.Fatal("fresh sink not enabled")
	}

	// Track registration deduplicates on (process, thread) and hands out
	// ids in first-registration order.
	a := s.Track("noc", "link0")
	b := s.Track("noc", "link1")
	if a2 := s.Track("noc", "link0"); a2 != a {
		t.Errorf("re-registration returned %d, want %d", a2, a)
	}
	if a == b {
		t.Error("distinct threads share a track id")
	}

	s.Span(a, "xfer", 10, 25)
	s.Span(b, "drop", 30, 30)
	if s.SpanCount() != 2 {
		t.Errorf("span count = %d, want 2", s.SpanCount())
	}

	s.Add("bytes", 64)
	s.Add("bytes", 32)
	if v := s.CounterValue("bytes"); v != 96 {
		t.Errorf("counter = %d, want 96", v)
	}
	s.Gauge("depth", 7)
	s.Gauge("depth", 3)
	if v := s.CounterValue("depth"); v != 3 {
		t.Errorf("gauge = %d, want last-write 3", v)
	}

	s.Observe("size", 64)
	s.Observe("size", 4096)
	if got := s.HistogramSamples("size"); len(got) != 2 || got[0] != 64 || got[1] != 4096 {
		t.Errorf("histogram = %v", got)
	}

	rep := s.MetricsReport()
	for _, want := range []string{"bytes", "depth", "size", "noc/link0", "noc/link1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("metrics report missing %q:\n%s", want, rep)
		}
	}
}

// Timestamps come from the kernel clock, so events recorded during a
// run carry simulated time.
func TestSinkTimestampsFollowKernelClock(t *testing.T) {
	k := sim.NewKernel()
	s := NewSink(k)
	k.After(5, func() { s.Add("ticks", 1) })
	k.After(9, func() { s.Gauge("depth", 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.samples) != 2 || s.samples[0].at != 5 || s.samples[1].at != 9 {
		t.Errorf("counter samples at %v, want cycles 5 and 9", s.samples)
	}
}

// Captures come back sorted by name regardless of registration order —
// the property that makes parallel-sweep exports order-independent.
func TestCollectorSortsCaptures(t *testing.T) {
	var c Collector
	k := sim.NewKernel()
	c.New("sweep/size=0002048", k)
	c.New("sweep/size=0000032", k)
	c.New("sweep/size=0001024", k)
	caps := c.Captures()
	if len(caps) != 3 {
		t.Fatalf("captures = %d, want 3", len(caps))
	}
	want := []string{"sweep/size=0000032", "sweep/size=0001024", "sweep/size=0002048"}
	for i, w := range want {
		if caps[i].Name != w {
			t.Errorf("capture[%d] = %q, want %q", i, caps[i].Name, w)
		}
		if caps[i].Sink == nil {
			t.Errorf("capture[%d] has nil sink", i)
		}
	}
}
