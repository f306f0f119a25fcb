package main

import (
	"strings"
	"time"
)

// span is one host-time interval the benchmark recorded around a call
// into a layer. Parent 0 means the span has no parent; every span of one
// pass has that pass's span as its root, so the pass span's id is the
// identifier they share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	// StartNs and EndNs are nanoseconds since the log was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory until the process writes them out. A
// nil log records nothing: untraced passes pay one nil check per call.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a pass span) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	pass := id
	if parent != 0 {
		pass = l.spans[parent-1].Pass
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Pass: pass, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
}

// seconds sums the durations of the spans whose name has the given
// prefix and suffix.
func (l *spanLog) seconds(prefix, suffix string) float64 {
	var ns int64
	for _, s := range l.spans {
		if strings.HasPrefix(s.Name, prefix) && strings.HasSuffix(s.Name, suffix) {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// spanFile is the layout of bench/out/trace-<workload>.json.
type spanFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func (l *spanLog) write(path, workload string) error {
	return writeJSON(path, spanFile{Workload: workload, Spans: l.spans})
}
