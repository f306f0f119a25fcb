// report.go renders a sink's counters, histograms and track occupancy as
// a plain-text metrics report — the quick-look companion to the Chrome
// export, answering "where did the cycles go" without a browser — and its
// spans as a Fig. 2 style ASCII timeline.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vscc/internal/sim"
	"vscc/internal/stats"
)

// MetricsReport renders one sink's recorded state. The report is a pure
// function of the deterministic event record, so it is byte-identical
// across reruns.
func (s *Sink) MetricsReport() string {
	if s == nil {
		return "(tracing disabled)\n"
	}
	var b strings.Builder
	end := s.k.Now()
	fmt.Fprintf(&b, "simulated time: %d cycles, kernel events: %d\n", uint64(end), s.k.Events())

	if len(s.counterNames) > 0 {
		b.WriteString("counters:\n")
		names := append([]string(nil), s.counterNames...)
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-36s %12d\n", n, s.counters[n])
		}
	}

	if len(s.histNames) > 0 {
		b.WriteString("histograms:\n")
		names := append([]string(nil), s.histNames...)
		sort.Strings(names)
		for _, n := range names {
			sm := stats.Summarize(s.hists[n])
			fmt.Fprintf(&b, "  %-36s n=%-6d min=%-10.0f p50=%-10.0f p99=%-10.0f max=%-10.0f mean=%.1f\n",
				n, sm.N, sm.Min, sm.Median, sm.P99, sm.Max, sm.Mean)
		}
	}

	if len(s.tracks) > 0 {
		b.WriteString("tracks: (busy = sum of span durations; util = busy / simulated time)\n")
		type occ struct {
			spans int
			busy  uint64
		}
		occs := make([]occ, len(s.tracks))
		for _, sp := range s.spans {
			o := &occs[sp.track]
			o.spans++
			o.busy += uint64(sp.to - sp.from)
		}
		for i, tr := range s.tracks {
			o := occs[i]
			util := 0.0
			if end > 0 {
				util = 100 * float64(o.busy) / float64(end)
			}
			fmt.Fprintf(&b, "  %-36s spans=%-7d busy=%-12d util=%5.1f%%\n",
				tr.process+"/"+tr.thread, o.spans, o.busy, util)
		}
	}
	return b.String()
}

// Report concatenates the metrics reports of every capture, each under a
// header naming the simulation it observed.
func Report(caps []Capture) string {
	var b strings.Builder
	for _, c := range caps {
		name := c.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "== metrics: %s ==\n", name)
		b.WriteString(c.Sink.MetricsReport())
	}
	return b.String()
}

// Timeline draws the sink's spans as fixed-width text, one row per track
// thread, with time flowing left to right — an ASCII rendition of the
// paper's Fig. 2 protocol diagrams. Spans are ordered by start cycle,
// then thread; rows appear in the order their first span does. A span
// draws as the first letter of its name, a zero-length one as '|'.
func (s *Sink) Timeline(width int) string {
	if s.SpanCount() == 0 {
		return "(empty timeline)\n"
	}
	actor := func(sp spanEvent) string { return s.tracks[sp.track].thread }
	spans := append([]spanEvent(nil), s.spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].from != spans[j].from {
			return spans[i].from < spans[j].from
		}
		return actor(spans[i]) < actor(spans[j])
	})
	lo, hi := spans[0].from, sim.Cycles(0)
	var actors []string
	for _, sp := range spans {
		hi = max(hi, sp.to)
		if a := actor(sp); !slices.Contains(actors, a) {
			actors = append(actors, a)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	scale := float64(width) / float64(hi-lo)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %d..%d cycles (1 col = %.0f cycles)\n", lo, hi, 1/scale)
	row := make([]byte, width)
	for _, a := range actors {
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range spans {
			if actor(sp) != a {
				continue
			}
			from := int(float64(sp.from-lo) * scale)
			to := min(int(float64(sp.to-lo)*scale), width-1)
			if from == to {
				row[from] = '|'
				continue
			}
			ch := byte('=')
			if sp.name != "" {
				ch = sp.name[0]
			}
			for i := from; i <= to; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-10s |%s|\n", a, row)
	}
	b.WriteString("legend: first letter of span label; '|' = instant event\n")
	return b.String()
}
