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

// roundTripAllocs returns the heap allocations one extra warm round trip
// of a size-byte ping-pong between ranks 0 and 48 of a 96-rank, 2-device
// session costs: the Mallocs growth of a 5-round-trip point over a
// 1-round-trip point, per extra round trip. MemStats counts the whole
// process, so a try can catch a stray runtime allocation: it keeps the
// least of three.
func roundTripAllocs(t *testing.T, scheme vscc.Scheme, size int) uint64 {
	t.Helper()
	mk := func() (*rcce.Session, error) {
		sys, err := vscc.NewSystem(sim.NewKernel(), vscc.Config{Devices: 2, Scheme: scheme})
		if err != nil {
			return nil, err
		}
		return sys.NewSession(96)
	}
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var m0, m1, m5 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := pingPong(mk, 0, 48, size, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if _, err := pingPong(mk, 0, 48, size, 5); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m5)
		one, five := m1.Mallocs-m0.Mallocs, m5.Mallocs-m1.Mallocs
		least = min(least, (max(five, one)-one)/4)
	}
	return least
}

// A warm round trip through the host allocates (almost) nothing: posted
// lines, streamed lines and DMA bursts ride pooled landing records. What
// is left are the process spawns per WCB flush (remote-put) and per vDMA
// burst (vdma). The parent design's allocations per extra round trip,
// at 32 B / 4 kB / 20 kB, were: routing 0/0/0, host-routed 22/530/2542,
// cached-get 12/854/4354, hw-accel 24/786/3792, remote-put 58/674/3298,
// vdma 24/334/1274. The bounds hold the 4 kB and 20 kB points to a
// tenth of those, to a quarter for remote-put and three quarters for
// vdma.
func TestWarmRoundTripAllocations(t *testing.T) {
	for _, tc := range []struct {
		scheme            vscc.Scheme
		bound4k, bound20k uint64
	}{
		{vscc.SchemeRouting, 0, 0},
		{vscc.SchemeHostRouted, 530 / 10, 2542 / 10},
		{vscc.SchemeCachedGet, 854 / 10, 4354 / 10},
		{vscc.SchemeHWAccel, 786 / 10, 3792 / 10},
		{vscc.SchemeRemotePut, 674 / 4, 3298 / 4},
		{vscc.SchemeVDMA, 334 * 3 / 4, 1274 * 3 / 4},
	} {
		small := roundTripAllocs(t, tc.scheme, 32)
		mid := roundTripAllocs(t, tc.scheme, 4096)
		large := roundTripAllocs(t, tc.scheme, 20000)
		t.Logf("%s: %d / %d / %d allocations per round trip at 32 B / 4 kB / 20 kB", tc.scheme.Key(), small, mid, large)
		if mid > tc.bound4k || large > tc.bound20k {
			t.Errorf("%s: %d allocations per 4 kB and %d per 20 kB round trip, want at most %d and %d",
				tc.scheme.Key(), mid, large, tc.bound4k, tc.bound20k)
		}
	}
}
