package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vscc/internal/sim"
)

// buildTestCapture records a small but representative sink: two
// processes, spans, a zero-length span, counters and awkward event names.
func buildTestCapture(t *testing.T) Capture {
	t.Helper()
	s := NewSink(sim.NewKernel())
	l0 := s.Track("noc", "link0")
	l1 := s.Track("noc", "link1")
	ct := s.Track("commtask", "d0")
	s.Span(l0, `xfer 64B "fast"`, 0, 40)
	s.Span(l1, "xfer 32B", 10, 30)
	s.Span(ct, "deliver", 5, 12)
	s.Span(l0, `drop\retry`, 40, 40)
	s.Add("bytes", 96)
	s.Add("bytes", 64)
	s.Gauge("depth", 2)
	return Capture{Name: "test/size=0000064", Sink: s}
}

// The export must be valid JSON with the documented structure: metadata
// names every process and thread, spans become X events, counters C
// events.
func TestWriteChromeProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Capture{buildTestCapture(t)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
	}
	// 2 track process_name + 3 thread_name + the metrics process_name.
	if counts["M"] != 6 {
		t.Errorf("metadata events = %d, want 6", counts["M"])
	}
	if counts["X"] != 4 {
		t.Errorf("spans = %d, want 4", counts["X"])
	}
	// bytes sampled twice, depth once.
	if counts["C"] != 3 {
		t.Errorf("counter events = %d, want 3", counts["C"])
	}
	// The quote and backslash in event names survived the round trip.
	var names []string
	for _, ev := range doc.TraceEvents {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, "\n")
	if !strings.Contains(joined, `xfer 64B "fast"`) || !strings.Contains(joined, `drop\retry`) {
		t.Errorf("escaped names did not round-trip:\n%s", joined)
	}
}

// Two encodes of the same captures must be byte-identical — the
// property the CI determinism gate builds on.
func TestWriteChromeDeterministic(t *testing.T) {
	caps := []Capture{buildTestCapture(t)}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, caps); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, caps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodes of the same captures differ")
	}
}

// Nil sinks (disabled points) and empty captures must not corrupt the
// document.
func TestWriteChromeSkipsNilSinks(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChrome(&buf, []Capture{
		{Name: "disabled", Sink: nil},
		{Name: "empty", Sink: NewSink(sim.NewKernel())},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export with nil sinks is not valid JSON: %v", err)
	}
}

// What WriteChrome exports, ReadChrome decodes and WriteEvents writes
// back byte for byte: vscctrace's merged files are in the exporter's
// own dialect.
func TestChromeRoundTrip(t *testing.T) {
	var exported bytes.Buffer
	if err := WriteChrome(&exported, []Capture{buildTestCapture(t)}); err != nil {
		t.Fatal(err)
	}
	events, err := ReadChrome(bytes.NewReader(exported.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := WriteEvents(&back, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), exported.Bytes()) {
		t.Errorf("round trip differs:\n%s\n--- want\n%s", back.String(), exported.String())
	}
}

func TestQuoteJSONEscapes(t *testing.T) {
	for in, want := range map[string]string{
		"plain":      `"plain"`,
		`a"b`:        `"a\"b"`,
		`a\b`:        `"a\\b"`,
		"tab\there":  "\"tab\\u0009here\"",
		"nl\nthere":  "\"nl\\u000athere\"",
		"bell\x07up": "\"bell\\u0007up\"",
	} {
		if got := quoteJSON(in); got != want {
			t.Errorf("quoteJSON(%q) = %s, want %s", in, got, want)
		}
		var back string
		if err := json.Unmarshal([]byte(quoteJSON(in)), &back); err != nil || back != in {
			t.Errorf("quoteJSON(%q) does not round-trip: %v, %q", in, err, back)
		}
	}
}
