// chrome.go is the one codec of the Chrome trace-event JSON format (the
// "trace event format" consumed by about://tracing and Perfetto): the
// exporter of recorded sinks, and the reader and writer of event streams
// cmd/vscctrace merges. Timestamps are simulated core cycles written as
// integer microseconds — one displayed microsecond is one 533 MHz core
// cycle — which keeps the encoder float-free and the output
// byte-reproducible.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// Event is one record of the dialect this package writes: metadata
// naming a process or thread (Ph "M", Name "process_name" or
// "thread_name", the name in Args.Name), a complete span ("X"), an
// instant ("i") or a counter sample ("C", the value in Args.Value).
type Event struct {
	Ph   string    `json:"ph"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Ts   uint64    `json:"ts"`
	Dur  uint64    `json:"dur"`
	Name string    `json:"name"`
	Args EventArgs `json:"args"`
}

// EventArgs are the arguments an Event carries.
type EventArgs struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// ReadChrome decodes one trace-event JSON document.
func ReadChrome(r io.Reader) ([]Event, error) {
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	err := json.NewDecoder(r).Decode(&doc)
	return doc.TraceEvents, err
}

// WriteEvents writes events, in order, as one trace-event JSON document;
// events of a phase outside the dialect are skipped. A stream ReadChrome
// decoded from this package's output is written back byte for byte.
func WriteEvents(w io.Writer, events []Event) error {
	cw := newChromeWriter(w)
	for i := range events {
		cw.write(&events[i])
	}
	return cw.close()
}

// WriteChrome writes the captures as one Chrome trace-event JSON
// document. Each capture becomes a group of processes: one pid per
// distinct track process name plus, when counters were recorded, one
// "metrics" pid carrying the counter time series. Output is a pure
// function of the recorded events, so two deterministic runs export
// byte-identical documents.
func WriteChrome(w io.Writer, caps []Capture) error {
	cw := newChromeWriter(w)
	nextPid := 0
	process := func(name string) int {
		pid := nextPid
		nextPid++
		cw.write(&Event{Ph: "M", Pid: pid, Name: "process_name", Args: EventArgs{Name: name}})
		return pid
	}
	for _, cap := range caps {
		s := cap.Sink
		if s == nil {
			continue
		}
		prefix := ""
		if cap.Name != "" {
			prefix = cap.Name + "/"
		}
		// One pid per distinct process name, in track-registration order.
		pidOf := make([]int, len(s.tracks))
		procPid := map[string]int{}
		tidOf := make([]int, len(s.tracks))
		procTids := map[string]int{}
		for i, tr := range s.tracks {
			pid, ok := procPid[tr.process]
			if !ok {
				pid = process(prefix + tr.process)
				procPid[tr.process] = pid
			}
			pidOf[i] = pid
			tidOf[i] = procTids[tr.process]
			procTids[tr.process]++
			cw.write(&Event{Ph: "M", Pid: pid, Tid: tidOf[i], Name: "thread_name", Args: EventArgs{Name: tr.thread}})
		}
		for _, sp := range s.spans {
			cw.write(&Event{Ph: "X", Pid: pidOf[sp.track], Tid: tidOf[sp.track], Ts: uint64(sp.from), Dur: uint64(sp.to - sp.from), Name: sp.name})
		}
		if len(s.samples) > 0 {
			pid := process(prefix + "metrics")
			for _, cs := range s.samples {
				cw.write(&Event{Ph: "C", Pid: pid, Ts: uint64(cs.at), Name: cs.name, Args: EventArgs{Value: cs.value}})
			}
		}
	}
	return cw.close()
}

// chromeWriter encodes one document event by event, each phase with
// exactly the fields it carries, in a fixed order.
type chromeWriter struct {
	bw    *bufio.Writer
	first bool
}

func newChromeWriter(w io.Writer) *chromeWriter {
	cw := &chromeWriter{bw: bufio.NewWriter(w), first: true}
	cw.bw.WriteString("{\"displayTimeUnit\":\"ms\",\n")
	cw.bw.WriteString("\"otherData\":{\"clock\":\"simulated core cycles (1 us = 1 cycle at 533 MHz)\"},\n")
	cw.bw.WriteString("\"traceEvents\":[\n")
	return cw
}

func (cw *chromeWriter) write(ev *Event) {
	switch ev.Ph {
	case "M", "X", "i", "C":
	default:
		return // not a phase of this dialect
	}
	if !cw.first {
		cw.bw.WriteString(",\n")
	}
	cw.first = false
	switch {
	case ev.Ph == "M" && ev.Name == "process_name":
		fmt.Fprintf(cw.bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, ev.Pid, quoteJSON(ev.Args.Name))
	case ev.Ph == "M":
		fmt.Fprintf(cw.bw, `{"ph":"M","pid":%d,"tid":%d,"name":%s,"args":{"name":%s}}`, ev.Pid, ev.Tid, quoteJSON(ev.Name), quoteJSON(ev.Args.Name))
	case ev.Ph == "X":
		fmt.Fprintf(cw.bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s}`, ev.Pid, ev.Tid, ev.Ts, ev.Dur, quoteJSON(ev.Name))
	case ev.Ph == "i":
		fmt.Fprintf(cw.bw, `{"ph":"i","pid":%d,"tid":%d,"ts":%d,"s":"t","name":%s}`, ev.Pid, ev.Tid, ev.Ts, quoteJSON(ev.Name))
	default:
		fmt.Fprintf(cw.bw, `{"ph":"C","pid":%d,"ts":%d,"name":%s,"args":{"value":%d}}`, ev.Pid, ev.Ts, quoteJSON(ev.Name), ev.Args.Value)
	}
}

func (cw *chromeWriter) close() error {
	cw.bw.WriteString("\n]}\n")
	return cw.bw.Flush()
}

// quoteJSON returns s as a quoted JSON string. Track and event names are
// plain ASCII identifiers in practice; quotes, backslashes and control
// characters are escaped for safety. A byte that is not UTF-8 is written
// \ufffd, as encoding/json writes it — a job name from a workload file
// may carry one — and so is U+FFFD itself, which is what the reader
// makes of that escape: a decoded document writes back byte for byte.
func quoteJSON(s string) string {
	buf := make([]byte, 0, len(s)+2)
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, fmt.Sprintf("\\u%04x", c)...)
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError {
				buf = append(buf, `\ufffd`...)
			} else {
				buf = append(buf, s[i:i+size]...)
			}
			i += size - 1
		default:
			buf = append(buf, c)
		}
	}
	return string(append(buf, '"'))
}
