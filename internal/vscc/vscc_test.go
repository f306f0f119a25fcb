package vscc

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

func newSystem(t testing.TB, devices int, scheme Scheme) *System {
	t.Helper()
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{Devices: devices, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*17 + seed
	}
	return b
}

var allSchemes = []Scheme{SchemeRouting, SchemeHostRouted, SchemeCachedGet, SchemeRemotePut, SchemeVDMA}

// crossPair runs a send/recv between rank 0 (device 0) and rank 48
// (device 1) and returns the received bytes and the completion time.
func crossPair(t testing.TB, scheme Scheme, size int, rounds int) ([]byte, sim.Cycles) {
	t.Helper()
	sys := newSystem(t, 2, scheme)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(size, byte(size))
	got := make([]byte, size)
	var done sim.Cycles
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < rounds; i++ {
				if err := r.Send(48, msg); err != nil {
					t.Error(err)
				}
			}
		case 48:
			for i := 0; i < rounds; i++ {
				if err := r.Recv(0, got); err != nil {
					t.Error(err)
				}
			}
			done = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, done
}

func TestAllSchemesDataIntegrity(t *testing.T) {
	for _, scheme := range allSchemes {
		scheme := scheme
		for _, size := range []int{1, 31, 32, 33, 64, 100, 4096, 7392, 7393, 8192, 20000, 65536} {
			t.Run(fmt.Sprintf("%v/%d", scheme, size), func(t *testing.T) {
				msg := pattern(size, byte(size))
				got, _ := crossPair(t, scheme, size, 1)
				if !bytes.Equal(got, msg) {
					t.Fatalf("scheme %v corrupted a %d-byte message", scheme, size)
				}
			})
		}
	}
}

func TestHWAccelScheme(t *testing.T) {
	size := 16384
	got, _ := crossPair(t, SchemeHWAccel, size, 1)
	if !bytes.Equal(got, pattern(size, byte(size))) {
		t.Fatal("hw-accelerated scheme corrupted data")
	}
}

func TestHWAccelRejectsThreeDevices(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewSystem(k, Config{Devices: 3, Scheme: SchemeHWAccel}); err == nil {
		t.Fatal("3-device hw-accelerated system should be rejected (§2.3)")
	}
}

func TestRepeatedMessagesAllSchemes(t *testing.T) {
	// Many back-to-back messages stress flag generations, cache
	// invalidation and the vDMA counters (mod-255 wrap at >255 chunks).
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			sys := newSystem(t, 2, scheme)
			session, err := sys.NewSession(96)
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 30
			err = session.Run(func(r *rcce.Rank) {
				const size = 5000
				for i := 0; i < rounds; i++ {
					if r.ID() == 0 {
						r.Send(48, pattern(size, byte(i)))
					} else if r.ID() == 48 {
						got := make([]byte, size)
						r.Recv(0, got)
						if !bytes.Equal(got, pattern(size, byte(i))) {
							t.Errorf("round %d corrupted", i)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVDMACounterWrap(t *testing.T) {
	// >255 chunks across messages exercises the mod-255 flag encoding.
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	const size = 40 * 1024 // ~12 chunks per message
	const rounds = 25      // ~300 chunks total
	err = session.Run(func(r *rcce.Rank) {
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(48, pattern(size, byte(i)))
			} else if r.ID() == 48 {
				got := make([]byte, size)
				r.Recv(0, got)
				if !bytes.Equal(got, pattern(size, byte(i))) {
					t.Fatalf("round %d corrupted after counter wrap", i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPingPongBothDirections(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCachedGet, SchemeRemotePut, SchemeVDMA} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			sys := newSystem(t, 2, scheme)
			session, err := sys.NewSession(96)
			if err != nil {
				t.Fatal(err)
			}
			const size = 9000
			err = session.Run(func(r *rcce.Rank) {
				buf := make([]byte, size)
				for i := 0; i < 5; i++ {
					if r.ID() == 0 {
						r.Send(48, pattern(size, byte(i)))
						r.Recv(48, buf)
						if !bytes.Equal(buf, pattern(size, byte(i+100))) {
							t.Errorf("pong %d corrupted", i)
						}
					} else if r.ID() == 48 {
						r.Recv(0, buf)
						if !bytes.Equal(buf, pattern(size, byte(i))) {
							t.Errorf("ping %d corrupted", i)
						}
						r.Send(0, pattern(size, byte(i+100)))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSchemePerformanceOrdering(t *testing.T) {
	// The shape of Fig. 6b: transparent routing is far slower than the
	// lower bound, which is far slower than every optimized scheme; the
	// vDMA scheme lands closest to (but below) the hardware-accelerated
	// upper bound.
	const size = 64 * 1024
	times := map[Scheme]sim.Cycles{}
	for _, scheme := range []Scheme{SchemeRouting, SchemeHostRouted, SchemeCachedGet, SchemeRemotePut, SchemeVDMA, SchemeHWAccel} {
		_, done := crossPair(t, scheme, size, 1)
		times[scheme] = done
	}
	if times[SchemeRouting] <= times[SchemeHostRouted] {
		t.Errorf("routing (%d) should be slower than host-routed (%d)", times[SchemeRouting], times[SchemeHostRouted])
	}
	for _, opt := range []Scheme{SchemeCachedGet, SchemeRemotePut, SchemeVDMA} {
		if times[SchemeHostRouted] <= 4*times[opt] {
			t.Errorf("%v (%d cycles) should be >4x faster than the lower bound (%d)", opt, times[opt], times[SchemeHostRouted])
		}
	}
	if times[SchemeVDMA] <= times[SchemeHWAccel] {
		t.Errorf("vDMA (%d) should be slower than the hardware upper bound (%d)", times[SchemeVDMA], times[SchemeHWAccel])
	}
	if times[SchemeCachedGet] <= times[SchemeVDMA] {
		t.Errorf("cached get (%d) is the worst optimized scheme; vDMA (%d) should beat it", times[SchemeCachedGet], times[SchemeVDMA])
	}
}

func TestOnChipPairsUnaffectedByScheme(t *testing.T) {
	// Same-device pairs must use the base on-chip protocol: identical
	// timing across schemes.
	times := map[Scheme]sim.Cycles{}
	for _, scheme := range allSchemes {
		sys := newSystem(t, 2, scheme)
		session, err := sys.NewSession(96)
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Cycles
		err = session.Run(func(r *rcce.Rank) {
			msg := pattern(10000, 1)
			if r.ID() == 0 {
				r.Send(1, msg)
			} else if r.ID() == 1 {
				got := make([]byte, len(msg))
				r.Recv(0, got)
				done = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		times[scheme] = done
	}
	for _, scheme := range allSchemes[1:] {
		if times[scheme] != times[allSchemes[0]] {
			t.Errorf("on-chip transfer timing differs: %v=%d vs %v=%d",
				scheme, times[scheme], allSchemes[0], times[allSchemes[0]])
		}
	}
}

func TestFiveDeviceSystem240Cores(t *testing.T) {
	sys := newSystem(t, 5, SchemeVDMA)
	if sys.TotalCores() != 240 {
		t.Fatalf("total cores = %d, want 240", sys.TotalCores())
	}
	session, err := sys.NewSession(240)
	if err != nil {
		t.Fatal(err)
	}
	if session.NumRanks() != 240 {
		t.Fatalf("ranks = %d, want 240", session.NumRanks())
	}
	// Rank->device mapping is linear: rank 48 starts device 1 (§3).
	for _, c := range []struct{ rank, dev int }{{0, 0}, {47, 0}, {48, 1}, {96, 2}, {239, 4}} {
		if pl := session.PlaceOf(c.rank); pl.Dev != c.dev {
			t.Errorf("rank %d on device %d, want %d", c.rank, pl.Dev, c.dev)
		}
	}
}

func TestCoordTriple(t *testing.T) {
	// Fig. 3: (x, y, z) with the device number as z.
	x, y, z := Coord(rcce.Place{Dev: 3, Core: 47})
	if z != 3 {
		t.Errorf("z = %d, want device 3", z)
	}
	if c := scc.CoreCoord(47); x != c.X || y != c.Y {
		t.Errorf("(x,y) = (%d,%d), want %v", x, y, c)
	}
}

func TestRingAcrossFiveDevices(t *testing.T) {
	// A 240-rank all-device ring with a small payload: every rank passes
	// a token to its right neighbour (crossing four device boundaries).
	sys := newSystem(t, 5, SchemeVDMA)
	session, err := sys.NewSession(240)
	if err != nil {
		t.Fatal(err)
	}
	const size = 256
	oks := make([]bool, 240)
	err = session.Run(func(r *rcce.Rank) {
		me := r.ID()
		n := r.N()
		next := (me + 1) % n
		prev := (me + n - 1) % n
		got := make([]byte, size)
		if me%2 == 0 {
			r.Send(next, pattern(size, byte(me)))
			r.Recv(prev, got)
		} else {
			r.Recv(prev, got)
			r.Send(next, pattern(size, byte(me)))
		}
		oks[me] = bytes.Equal(got, pattern(size, byte(prev)))
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, ok := range oks {
		if !ok {
			t.Errorf("rank %d got a corrupted ring token", me)
		}
	}
}

func TestBarrierAcrossDevices(t *testing.T) {
	sys := newSystem(t, 3, SchemeVDMA)
	session, err := sys.NewSession(144)
	if err != nil {
		t.Fatal(err)
	}
	var latestArrival sim.Cycles
	after := make([]sim.Cycles, 144)
	err = session.Run(func(r *rcce.Rank) {
		r.Ctx().Delay(sim.Cycles(r.ID()) * 1000)
		if now := r.Now(); now > latestArrival {
			latestArrival = now
		}
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range after {
		if a < latestArrival {
			t.Fatalf("rank %d left the cross-device barrier early (%d < %d)", i, a, latestArrival)
		}
	}
}

func TestDirectThresholdSmallMessages(t *testing.T) {
	// Below the threshold the vDMA machinery must not engage.
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 48)
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(48, pattern(48, 9))
		} else if r.ID() == 48 {
			r.Recv(0, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(48, 9)) {
		t.Fatal("direct small message corrupted")
	}
	if sys.Task.Stats().VDMACopies != 0 {
		t.Errorf("vDMA engaged for a %d-byte message below the threshold", 48)
	}
}

func TestVDMAEngagesAboveThreshold(t *testing.T) {
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(48, pattern(4096, 1))
		} else if r.ID() == 48 {
			r.Recv(0, make([]byte, 4096))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Task.Stats().VDMACopies == 0 {
		t.Error("vDMA did not engage above the threshold")
	}
}

func TestDeterministicCrossDeviceRuns(t *testing.T) {
	run := func() sim.Cycles {
		_, done := crossPair(t, SchemeVDMA, 30000, 3)
		return done
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic run: %d vs %d", got, first)
		}
	}
}

// Property: arbitrary sizes and schemes always round-trip intact across
// the device boundary.
func TestPropertyCrossDeviceIntegrity(t *testing.T) {
	f := func(szRaw uint16, schemeRaw uint8) bool {
		size := int(szRaw)%20000 + 1
		scheme := allSchemes[int(schemeRaw)%len(allSchemes)]
		got, _ := crossPair(t, scheme, size, 1)
		return bytes.Equal(got, pattern(size, byte(size)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
