package trace

import (
	"testing"

	"vscc/internal/sim"
)

// Rows appear in the order of their first span, spans ordered by start
// cycle and then thread, whatever the recording order: "c" starts first,
// and "a" and "b" both start at cycle 10.
func TestTimelineSpansSorted(t *testing.T) {
	s := NewSink(sim.NewKernel())
	s.Span(s.Track("rcce", "b"), "put", 10, 20)
	s.Span(s.Track("rcce", "a"), "get", 10, 15)
	s.Span(s.Track("rcce", "c"), "wait", 5, 8)
	want := "timeline 5..20 cycles (1 col = 1 cycles)\n" +
		"c          |wwww           |\n" +
		"a          |     gggggg    |\n" +
		"b          |     pppppppppp|\n" +
		"legend: first letter of span label; '|' = instant event\n"
	if got := s.Timeline(15); got != want {
		t.Errorf("timeline =\n%s\nwant\n%s", got, want)
	}
}

// A span is drawn as the first letter of its name, a zero-length one as
// '|'.
func TestTimelineRender(t *testing.T) {
	s := NewSink(sim.NewKernel())
	tr := s.Track("rcce", "sender")
	s.Span(tr, "put", 0, 8)
	s.Span(tr, "dma-armed", 4, 4)
	want := "timeline 0..8 cycles (1 col = 1 cycles)\n" +
		"sender     |pppp|ppp|\n" +
		"legend: first letter of span label; '|' = instant event\n"
	if got := s.Timeline(8); got != want {
		t.Errorf("timeline =\n%s\nwant\n%s", got, want)
	}
}

func TestTimelineRenderEmpty(t *testing.T) {
	var off *Sink
	for _, s := range []*Sink{off, NewSink(sim.NewKernel())} {
		if got := s.Timeline(40); got != "(empty timeline)\n" {
			t.Errorf("empty timeline = %q", got)
		}
	}
}
