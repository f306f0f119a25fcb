package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one labelled interval on a Timeline, attributed to an actor
// (for example "sender", "receiver", "commtask").
type Span struct {
	Actor string
	Label string
	From  Cycles
	To    Cycles
}

// Timeline records labelled spans of simulated time. The vSCC harness uses
// it to regenerate the paper's Figure 2 style protocol diagrams and the
// tests use it to assert protocol ordering (for example, that a pipelined
// transfer interleaves put and get phases).
type Timeline struct {
	k     *Kernel
	spans []Span
}

// NewTimeline returns an empty timeline bound to kernel k.
func NewTimeline(k *Kernel) *Timeline { return &Timeline{k: k} }

// Record adds a completed span.
func (t *Timeline) Record(actor, label string, from, to Cycles) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Actor: actor, Label: label, From: from, To: to})
}

// Mark adds a zero-length span at the current time.
func (t *Timeline) Mark(actor, label string) {
	if t == nil {
		return
	}
	now := t.k.Now()
	t.spans = append(t.spans, Span{Actor: actor, Label: label, From: now, To: now})
}

// Spans returns all recorded spans ordered by start time, then actor.
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Actor < out[j].Actor
	})
	return out
}

// Overlap reports whether any span with label a overlaps in time with any
// span with label b — used to verify pipelining (interleaved put/get).
//
//lint:ignore deadcode the rcce, ircce and root tests verify pipelining with it
func (t *Timeline) Overlap(a, b string) bool {
	for _, x := range t.spans {
		if x.Label != a {
			continue
		}
		for _, y := range t.spans {
			if y.Label != b {
				continue
			}
			if x.From < y.To && y.From < x.To {
				return true
			}
		}
	}
	return false
}

// Render draws the timeline as fixed-width text, one row per actor, with
// time flowing left to right — an ASCII rendition of the paper's Fig. 2.
func (t *Timeline) Render(width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	var min, max Cycles = spans[0].From, 0
	actors := []string{}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.From < min {
			min = s.From
		}
		if s.To > max {
			max = s.To
		}
		if !seen[s.Actor] {
			seen[s.Actor] = true
			actors = append(actors, s.Actor)
		}
	}
	if max == min {
		max = min + 1
	}
	scale := float64(width) / float64(max-min)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %d..%d cycles (1 col = %.0f cycles)\n", min, max, 1/scale)
	for _, actor := range actors {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range spans {
			if s.Actor != actor {
				continue
			}
			from := int(float64(s.From-min) * scale)
			to := int(float64(s.To-min) * scale)
			if to >= width {
				to = width - 1
			}
			ch := byte('=')
			if len(s.Label) > 0 {
				ch = s.Label[0]
			}
			if from == to {
				row[from] = '|'
				continue
			}
			for i := from; i <= to; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-10s |%s|\n", actor, string(row))
	}
	b.WriteString("legend: first letter of span label; '|' = instant event\n")
	return b.String()
}
