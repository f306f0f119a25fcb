package trace

import (
	"bytes"
	"testing"
)

// FuzzReadChrome: ReadChrome never panics, and for any document it
// accepts, what WriteEvents makes of it is a fixed point of one more read
// and write. The seeds are a small document of the writer's own and one
// whose span name is the byte 0xff, as a job name from a workload file
// may carry.
func FuzzReadChrome(f *testing.F) {
	var doc bytes.Buffer
	if err := WriteChrome(&doc, []Capture{buildTestCapture(f)}); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add([]byte("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":10,\"name\":\"\xff\"}]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteEvents(&once, events); err != nil {
			t.Fatal(err)
		}
		again, err := ReadChrome(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("ReadChrome rejects what WriteEvents wrote: %v\n%q", err, once.String())
		}
		if err := WriteEvents(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("not a fixed point:\n%q\n--- then\n%q", once.String(), twice.String())
		}
	})
}
