package harness

import (
	"runtime"
	"testing"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// One Fig. 6b point runs on a 96-rank session, of which only ranks 0
// and 48 talk. The point's memory is the session it builds plus the two
// talkers' message buffers: the 94 idle ranks allocate nothing, so a
// 64 KB point stays well under what 96 buffer pairs alone would take
// (96 × 2 × 64 KB = 12 MB).
func TestPingPongAllocatesForTheTalkersOnly(t *testing.T) {
	const size = 64 << 10
	mk := func() (*rcce.Session, error) {
		sys, err := vscc.NewSystem(sim.NewKernel(), vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
		if err != nil {
			return nil, err
		}
		return sys.NewSession(96)
	}
	if _, err := pingPong(mk, 0, 48, size, 1); err != nil { // warm package state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := pingPong(mk, 0, 48, size, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("one 96-rank %d-byte ping-pong point allocates %d bytes, want at most %d", size, got, bound)
	}
}
