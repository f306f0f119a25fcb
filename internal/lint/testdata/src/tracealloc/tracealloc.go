// Fixture for the tracealloc rule: no dynamic span/counter name building
// at unguarded trace.Sink call sites. The stub sink mirrors the recording
// method names the analyzer matches on.
package tracealloc

import "fmt"

type span int

type sink struct{}

func (s *sink) Enabled() bool                       { return s != nil }
func (s *sink) Span(tr span, name string, a, b int) {}
func (s *sink) Gauge(name string, v int)            {}
func (s *sink) Add(name string, v int)              {}

func itoa(v int) string { return fmt.Sprint(v) }

func unguarded(s *sink, tr span, id int) {
	s.Span(tr, fmt.Sprintf("xfer-%d", id), 0, 1) // want "builds a trace label with fmt.Sprintf at an unguarded call site"
	s.Add("lane-"+itoa(id), 1)                   // want "builds a trace label with string concatenation at an unguarded call site"
}

func constantNames(s *sink, tr span, id int) {
	s.Add("fixed-name", 1)  // ok: constant name
	s.Gauge("pre"+"fix", 1) // ok: constant-folded concatenation
	s.Add("bytes", id+id)   // ok: numeric + is not a string build
}

func guardedBlock(s *sink, tr span, id int) {
	if s.Enabled() {
		s.Span(tr, fmt.Sprintf("xfer-%d", id), 0, 1) // ok: inside an Enabled guard
	}
}

func guardedEarlyReturn(s *sink, tr span, id int) {
	if !s.Enabled() {
		return
	}
	s.Span(tr, fmt.Sprintf("xfer-%d", id), 0, 1) // ok: the disabled path returned above
}

func nilGuard(s *sink, id int) {
	if s == nil {
		return
	}
	s.Add("lane-"+itoa(id), 1) // ok: nil receiver excluded above
}

func guardDoesNotLeak(s *sink, tr span, id int) {
	if s.Enabled() {
		s.Add("count", 1)
	}
	s.Gauge(fmt.Sprintf("late-%d", id), 1) // want "builds a trace label with fmt.Sprintf at an unguarded call site"
}

func suppressed(s *sink, id int) {
	//lint:ignore tracealloc fixture proves suppression; cold path
	s.Add("lane-"+itoa(id), 1)
}
