// Integration tests across the full stack: the 240-core flagship
// configuration, protocol timelines, end-to-end determinism, failure
// injection, and application-level data integrity through every layer.
package vscc_test

import (
	"bytes"
	"math"
	"testing"

	"vscc/internal/ircce"
	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

func TestFlagship240CoreAllReduce(t *testing.T) {
	// The paper's headline system: five devices, 240 cores, one session.
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 5, Scheme: vscc.SchemeVDMA})
	if err != nil {
		t.Fatal(err)
	}
	session, err := sys.NewSession(240)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	err = session.Run(func(r *rcce.Rank) {
		v := []float64{float64(r.ID() + 1)}
		if err := r.Allreduce(rcce.OpSum, v); err != nil {
			panic(err)
		}
		if r.ID() == 0 {
			sum = v[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(240 * 241 / 2); sum != want {
		t.Errorf("allreduce over 240 cores = %v, want %v", sum, want)
	}
}

func TestVDMATimelineOverlapsPutAndGet(t *testing.T) {
	// The mechanism behind the removed 8 kB slope: with double-buffered
	// slots, the sender's put of chunk k+1 overlaps the receiver's local
	// get of chunk k.
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
	if err != nil {
		t.Fatal(err)
	}
	tl := sim.NewTimeline(k)
	session, err := sys.NewSession(96, rcce.WithTimeline(tl))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64*1024)
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(48, msg)
		} else if r.ID() == 48 {
			r.Recv(0, make([]byte, len(msg)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Overlap("put", "localget") {
		t.Error("vDMA pipeline did not overlap sender put with receiver get")
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	// A full mixed workload — BT timing run over three devices — ends at
	// the identical simulated cycle on every rerun.
	run := func() sim.Cycles {
		k := sim.NewKernel()
		sys, err := vscc.NewSystem(k, vscc.Config{Devices: 3, Scheme: vscc.SchemeVDMA})
		if err != nil {
			t.Fatal(err)
		}
		session, err := sys.NewSession(64)
		if err != nil {
			t.Fatal(err)
		}
		d, err := npb.NewDecomp(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		res, err := npb.RunOn(session, d, npb.Config{Class: npb.ClassA, Iterations: 1, Timing: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("nondeterministic full-stack run: %d vs %d", first, second)
	}
}

func TestDegradedSystemStillComputesCorrectly(t *testing.T) {
	// Silent core failures (paper §4): a 2-device system boots with
	// failed cores; the session maps around them and BT still verifies
	// against the healthy run.
	healthy := runBTChecksum(t, nil)
	degraded := runBTChecksum(t, map[int][]int{0: {3, 17}, 1: {0, 40, 41}})
	for m := 0; m < 5; m++ {
		rel := math.Abs(degraded[m]-healthy[m]) / math.Abs(healthy[m])
		if rel > 1e-9 {
			t.Errorf("degraded checksum[%d] differs by %.2e", m, rel)
		}
	}
}

func runBTChecksum(t *testing.T, failed map[int][]int) npb.Vec5 {
	t.Helper()
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA, FailedCores: failed})
	if err != nil {
		t.Fatal(err)
	}
	session, err := sys.NewSession(9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := npb.NewDecomp(npb.ClassS.N, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := npb.RunOn(session, d, npb.Config{Class: npb.ClassS, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Checksum
}

func TestMixedProtocolsOneSession(t *testing.T) {
	// Blocking RCCE and the request engine — on-chip and cross-device
	// requests through the one ircce.Engine — interoperate within one
	// session.
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
	if err != nil {
		t.Fatal(err)
	}
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	const size = 9000
	mk := func(seed byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i)*3 + seed
		}
		return b
	}
	got1 := make([]byte, size) // on-chip request
	got2 := make([]byte, size) // cross-device request
	got3 := make([]byte, size) // cross-device blocking
	irecv := func(r *rcce.Rank, buf []byte) {
		eng := ircce.New(r)
		q, err := eng.Irecv(0, buf)
		if err != nil {
			panic(err)
		}
		eng.WaitAll(q)
	}
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			eng := ircce.New(r)
			q, err := eng.Isend(1, mk(1))
			if err != nil {
				panic(err)
			}
			eng.WaitAll(q)
			aq, err := eng.Isend(48, mk(2))
			if err != nil {
				panic(err)
			}
			eng.WaitAll(aq)
			r.Send(49, mk(3))
		case 1:
			irecv(r, got1)
		case 48:
			irecv(r, got2)
		case 49:
			r.Recv(0, got3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, mk(1)) || !bytes.Equal(got2, mk(2)) || !bytes.Equal(got3, mk(3)) {
		t.Error("mixed-protocol session corrupted data")
	}
}

func TestTrafficObserverSeesAsyncTransfers(t *testing.T) {
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
	if err != nil {
		t.Fatal(err)
	}
	m := trace.NewMatrix(96, 48)
	session, err := sys.NewSession(96, rcce.WithTrafficObserver(m.Record))
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			eng := ircce.New(r)
			q, _ := eng.Isend(48, make([]byte, 5000))
			eng.WaitAll(q)
		case 48:
			eng := ircce.New(r)
			q, _ := eng.Irecv(0, make([]byte, 5000))
			eng.WaitAll(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bytes(0, 48) != 5000 {
		t.Errorf("traffic(0,48) = %d, want 5000", m.Bytes(0, 48))
	}
	if m.InterDeviceBytes() != 5000 {
		t.Errorf("inter-device bytes = %d", m.InterDeviceBytes())
	}
}

func TestPowerScalingUnderBT(t *testing.T) {
	// Application-level frequency scaling: BT on a half-clocked chip
	// takes proportionally longer but stays correct.
	run := func(divider int) (npb.Vec5, sim.Cycles) {
		k := sim.NewKernel()
		chip := scc.NewChip(k, 0, scc.DefaultParams())
		if divider != scc.DefaultDivider {
			for tile := 0; tile < scc.NumTiles; tile++ {
				if err := chip.SetTileDivider(tile, divider); err != nil {
					t.Fatal(err)
				}
			}
		}
		places, err := rcce.LinearPlaces([]*scc.Chip{chip}, 4)
		if err != nil {
			t.Fatal(err)
		}
		session, err := rcce.NewSession(k, []*scc.Chip{chip}, places)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := npb.NewDecomp(npb.ClassS.N, 4)
		res, err := npb.RunOn(session, d, npb.Config{Class: npb.ClassS, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Checksum, res.Cycles
	}
	fastSum, fastCycles := run(scc.DefaultDivider)
	slowSum, slowCycles := run(6)
	if fastSum != slowSum {
		t.Error("frequency scaling changed the numerical result")
	}
	ratio := float64(slowCycles) / float64(fastCycles)
	if ratio < 1.5 || ratio > 2.1 {
		t.Errorf("half clock slowed BT by %.2fx, want ~2x (compute dominated)", ratio)
	}
}
