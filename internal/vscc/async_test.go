package vscc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/ircce"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

// TestAsyncRequiresVDMAScheme: only the vDMA scheme's counter flags can be
// polled by a request, so toward a peer on another device every other
// scheme refuses Isend and Irecv before a flag is touched — the
// clear-flag handshake would run over bytes the blocking protocol owns.
func TestAsyncRequiresVDMAScheme(t *testing.T) {
	for _, scheme := range sixSchemes {
		if scheme == SchemeVDMA {
			continue
		}
		sys := newSystem(t, 2, scheme)
		session, err := sys.NewSession(96)
		if err != nil {
			t.Fatal(err)
		}
		err = session.Run(func(r *rcce.Rank) {
			if r.ID() != 0 {
				return
			}
			eng := ircce.New(r)
			if _, err := eng.Isend(48, []byte{1}); err == nil {
				t.Errorf("%s: cross-device isend accepted", scheme.Key())
			}
			if _, err := eng.Irecv(48, make([]byte, 1)); err == nil {
				t.Errorf("%s: cross-device irecv accepted", scheme.Key())
			}
			if _, err := eng.Isend(0, []byte{1}); err == nil {
				t.Errorf("%s: isend to self accepted", scheme.Key())
			}
			if _, err := eng.Irecv(0, make([]byte, 1)); err == nil {
				t.Errorf("%s: irecv from self accepted", scheme.Key())
			}
			if eng.Pending() != 0 || r.Now() != 0 {
				t.Errorf("%s: refused requests left %d pending and took %d cycles", scheme.Key(), eng.Pending(), r.Now())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAsyncSendRecvIntegrity(t *testing.T) {
	for _, size := range []int{1, 100, 3424, 3425, 10000, 40000} {
		size := size
		sys := newSystem(t, 2, SchemeVDMA)
		session, err := sys.NewSession(96)
		if err != nil {
			t.Fatal(err)
		}
		msg := pattern(size, byte(size))
		got := make([]byte, size)
		err = session.Run(func(r *rcce.Rank) {
			switch r.ID() {
			case 0:
				eng := ircce.New(r)
				q, err := eng.Isend(48, msg)
				if err != nil {
					t.Error(err)
					return
				}
				eng.WaitAll(q)
			case 48:
				eng := ircce.New(r)
				q, err := eng.Irecv(0, got)
				if err != nil {
					t.Error(err)
					return
				}
				eng.WaitAll(q)
			}
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d corrupted", size)
		}
	}
}

func TestAsyncOverlapsComputeWithTransfer(t *testing.T) {
	// The point of the future-work extension: the sender's compute and
	// the host's DMA overlap, so compute+transfer costs ~max, not ~sum.
	const size = 60000
	const computeCycles = 3_000_000
	run := func(async bool) sim.Cycles {
		sys := newSystem(t, 2, SchemeVDMA)
		session, err := sys.NewSession(96)
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Cycles
		err = session.Run(func(r *rcce.Rank) {
			msg := pattern(size, 1)
			switch r.ID() {
			case 0:
				if async {
					eng := ircce.New(r)
					q, err := eng.Isend(48, msg)
					if err != nil {
						panic(err)
					}
					// Useful work while the host moves the data; poke
					// progress between compute blocks as iRCCE would.
					for i := 0; i < 10; i++ {
						r.Ctx().Delay(computeCycles / 10)
						eng.Push()
					}
					eng.WaitAll(q)
				} else {
					r.Send(48, msg)
					r.Ctx().Delay(computeCycles)
				}
				done = r.Now()
			case 48:
				r.Recv(0, make([]byte, size))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	blocking := run(false)
	async := run(true)
	if async >= blocking {
		t.Errorf("async (%d cycles) should beat blocking send+compute (%d)", async, blocking)
	}
	// The overlap should hide a substantial part of the transfer.
	saved := float64(blocking-async) / float64(blocking)
	if saved < 0.15 {
		t.Errorf("async saved only %.1f%% — no real overlap", 100*saved)
	}
}

func TestAsyncBidirectionalExchange(t *testing.T) {
	const size = 20000
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]byte{0: make([]byte, size), 48: make([]byte, size)}
	err = session.Run(func(r *rcce.Rank) {
		me := r.ID()
		if me != 0 && me != 48 {
			return
		}
		peer := 48 - me
		eng := ircce.New(r)
		sq, err := eng.Isend(peer, pattern(size, byte(me+1)))
		if err != nil {
			panic(err)
		}
		rq, err := eng.Irecv(peer, got[me])
		if err != nil {
			panic(err)
		}
		eng.WaitAll(sq, rq)
		if eng.Pending() != 0 {
			t.Errorf("rank %d: %d requests pending after WaitAll", me, eng.Pending())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], pattern(size, byte(49))) || !bytes.Equal(got[48], pattern(size, byte(1))) {
		t.Error("bidirectional async exchange corrupted")
	}
}

func TestAsyncInteropWithBlockingPeer(t *testing.T) {
	// One side async, the other blocking: the wire protocol is shared.
	const size = 12000
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			eng := ircce.New(r)
			q, err := eng.Isend(48, pattern(size, 7))
			if err != nil {
				panic(err)
			}
			eng.WaitAll(q)
		case 48:
			r.Recv(0, got) // blocking receive
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(size, 7)) {
		t.Error("async->blocking interop corrupted")
	}
}

func TestAsyncSequenceOfMessages(t *testing.T) {
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			eng := ircce.New(r)
			for i := 0; i < rounds; i++ {
				q, err := eng.Isend(48, pattern(5000, byte(i)))
				if err != nil {
					panic(err)
				}
				eng.WaitAll(q)
			}
		case 48:
			eng := ircce.New(r)
			for i := 0; i < rounds; i++ {
				got := make([]byte, 5000)
				q, err := eng.Irecv(0, got)
				if err != nil {
					panic(err)
				}
				eng.WaitAll(q)
				if !bytes.Equal(got, pattern(5000, byte(i))) {
					t.Errorf("round %d corrupted", i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncZeroLengthAndSameDevice(t *testing.T) {
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	err = session.Run(func(r *rcce.Rank) {
		eng := ircce.New(r)
		switch r.ID() {
		case 0:
			q, err := eng.Isend(48, nil)
			if err != nil || !q.Done() {
				t.Errorf("zero-length isend: %v, done=%v", err, q.Done())
			}
			if _, err := eng.Isend(0, []byte{1}); err == nil {
				t.Error("isend to self accepted")
			}
			// A same-device peer is served by the on-chip request kind.
			q, err = eng.Isend(1, []byte{7})
			if err != nil {
				t.Errorf("same-device isend: %v", err)
				return
			}
			eng.WaitAll(q)
		case 1:
			q, err := eng.Irecv(0, got)
			if err != nil {
				t.Errorf("same-device irecv: %v", err)
				return
			}
			eng.WaitAll(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("same-device request corrupted")
	}
}

// TestAsyncMixedOnChipAndCrossDevice holds an on-chip and a cross-device
// isend of one rank in flight together: one engine, one WaitAll, the kind
// of each request chosen from where its peer sits.
func TestAsyncMixedOnChipAndCrossDevice(t *testing.T) {
	const size = 20000
	run := func() (sim.Cycles, [2][]byte) {
		sys := newSystem(t, 2, SchemeVDMA)
		session, err := sys.NewSession(96)
		if err != nil {
			t.Fatal(err)
		}
		got := [2][]byte{make([]byte, size), make([]byte, size)}
		var end sim.Cycles
		err = session.Run(func(r *rcce.Rank) {
			eng := ircce.New(r)
			switch r.ID() {
			case 0:
				near, err := eng.Isend(1, pattern(size, 1))
				if err != nil {
					panic(err)
				}
				far, err := eng.Isend(48, pattern(size, 2))
				if err != nil {
					panic(err)
				}
				if near.Done() || far.Done() || eng.Pending() != 2 {
					t.Errorf("both multi-chunk isends should be in flight, %d pending", eng.Pending())
				}
				eng.WaitAll(near, far)
				if eng.Pending() != 0 {
					t.Errorf("%d requests pending after WaitAll", eng.Pending())
				}
				end = r.Now()
			case 1, 48:
				q, err := eng.Irecv(0, got[r.ID()/48])
				if err != nil {
					panic(err)
				}
				eng.WaitAll(q)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, got
	}
	end, got := run()
	if !bytes.Equal(got[0], pattern(size, 1)) || !bytes.Equal(got[1], pattern(size, 2)) {
		t.Error("mixed on-chip/cross-device requests corrupted")
	}
	if again, _ := run(); again != end {
		t.Errorf("end cycle %d, then %d on the rerun", end, again)
	}
}

// asyncStream moves six 20000 B messages from rank 0 to rank 1, on another
// device, by isend/irecv under a fault schedule. It returns whether every
// payload arrived intact, the system (for the recovery ledger) and the
// run error.
func asyncStream(t *testing.T, faults *fault.Config) (bool, *System, error) {
	t.Helper()
	const size, reps = 20000, 6
	sys, err := NewSystem(sim.NewKernel(), Config{Devices: 2, Scheme: SchemeVDMA, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	session, err := sys.NewSessionAt(pinPlaces)
	if err != nil {
		t.Fatal(err)
	}
	intact := true
	err = session.Run(func(r *rcce.Rank) {
		eng := ircce.New(r)
		for rep := 0; rep < reps; rep++ {
			var q *ircce.Request
			var err error
			got := make([]byte, size)
			if r.ID() == 0 {
				q, err = eng.Isend(1, pattern(size, byte(rep)))
			} else {
				q, err = eng.Irecv(0, got)
			}
			if err != nil {
				panic(err)
			}
			eng.WaitAll(q)
			if r.ID() == 1 && !bytes.Equal(got, pattern(size, byte(rep))) {
				intact = false
			}
		}
	})
	return intact, sys, err
}

// TestAsyncFaultLadder drives a stalled engine through every rung of the
// vDMA stall handling: a sleep budget that expires re-arms the newest
// vDMA command and republishes grants (async-retry, vdma-rearm), a ladder
// that runs out fails with a snapshot of the stalled head, and a stall
// against a crashed device either fails with rcce.ErrDeviceLost or, under
// devretry, parks until the rejoin (device-wait). Every outcome, cycle
// stamps included, is reproduced by a rerun.
func TestAsyncFaultLadder(t *testing.T) {
	noVerify := fault.Recovery{VerifyRetries: -1, WaitBudget: 50_000, MaxWaitRetries: 3}
	cases := []struct {
		name    string
		faults  fault.Config
		wantErr string   // substring of the run error; "" = completes intact
		ledger  []string // recovery kinds that must have been recorded
	}{
		{name: "lost flags recovered",
			faults: fault.Config{Seed: 2, FlagLossPer10k: 500, Recovery: fault.Recovery{VerifyRetries: -1, WaitBudget: 50_000, MaxWaitRetries: 4}},
			ledger: []string{"recover.async-retry", "recover.vdma-rearm"}},
		{name: "every flag lost",
			faults:  fault.Config{Seed: 9, FlagLossPer10k: 10_000, Recovery: noVerify},
			wantErr: "vscc: async engine rank 0 lost completion after 3 retries at cycle 750000: send->1 wait-grant seq 1 of 1..6",
			ledger:  []string{"recover.async-retry"}},
		{name: "device lost",
			faults:  fault.Config{Seed: 11, DevCrashAt: []fault.DeviceFault{{At: 80_000, Dev: 1, Down: 10_000_000}}, Recovery: fault.Recovery{WaitBudget: 50_000, MaxWaitRetries: 3}},
			wantErr: "vscc: async engine rank 0: device 1 lost at cycle 229909",
			ledger:  []string{"recover.vdma-rearm"}},
		{name: "device lost, devretry",
			faults: fault.Config{Seed: 13, DevCrashAt: []fault.DeviceFault{{At: 150_000, Dev: 1}}, Recovery: fault.Recovery{DeviceRetry: true, WaitBudget: 20_000}},
			ledger: []string{"recover.device-wait", "recover.rejoin", "recover.vdma-rearm"}},
	}
	for _, c := range cases {
		faults := c.faults
		intact, sys, err := asyncStream(t, &faults)
		switch {
		case c.wantErr == "" && (err != nil || !intact):
			t.Errorf("%s: intact=%v, err=%v", c.name, intact, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
		if len(c.faults.DevCrashAt) > 0 && c.wantErr != "" && !errors.Is(err, rcce.ErrDeviceLost) {
			t.Errorf("%s: error does not match rcce.ErrDeviceLost: %v", c.name, err)
		}
		for _, kind := range c.ledger {
			if sys.Injector.Stat(kind) == 0 {
				t.Errorf("%s: no %s recorded:\n%s", c.name, kind, sys.Injector.Summary())
			}
		}
		faults = c.faults
		_, sys2, err2 := asyncStream(t, &faults)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Errorf("%s: rerun ended differently:\nfirst: %v\nrerun: %v", c.name, err, err2)
		}
		if sys.Kernel.Now() != sys2.Kernel.Now() || sys.Injector.Summary() != sys2.Injector.Summary() {
			t.Errorf("%s: rerun ended at cycle %d with ledger\n%s\nfirst run at %d with\n%s",
				c.name, sys2.Kernel.Now(), sys2.Injector.Summary(), sys.Kernel.Now(), sys.Injector.Summary())
		}
	}
}
