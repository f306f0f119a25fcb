package pcie

import (
	"testing"

	"vscc/internal/fault"
	"vscc/internal/sim"
)

// TestChannelSeqWraparound primes a channel's sequence counters just
// below ^uint64(0) and drives deliveries across the wrap under drop and
// duplicate pressure: the signed-distance duplicate check must keep
// exactly-once in-order semantics when Seq overflows — a frame just past
// a delivered counter near the top of the range is new, not a duplicate
// from 2^64 packets ago.
func TestChannelSeqWraparound(t *testing.T) {
	const n = 50
	cfg := fault.Config{
		Seed:       21,
		DropPer10k: 2000,
		DupPer10k:  2000,
		Recovery:   fault.Recovery{RetxTimeout: 8000},
	}
	k := sim.NewKernel()
	f, err := New(1, DefaultParams(), AckHost)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(k, cfg)
	f.SetFaults(k, inj)
	// Three packets before the wrap, the rest after it.
	c := f.chans[0].h2d
	start := ^uint64(0) - 3
	c.nextSeq = start
	c.delivered = start

	var order []int
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			f.PostH2D(p, 0, 256, func() { order = append(order, i) })
			p.Delay(50)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d packets, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery %d carried packet %d (out of order across the wrap)", i, got)
		}
	}
	if got := len(c.outstanding); got != 0 {
		t.Errorf("backlog %d after drain, want 0", got)
	}
	if c.delivered != start+n {
		t.Errorf("delivered counter = %d, want %d (wrapped)", c.delivered, start+n)
	}
	if inj.Stat("recover.dup-discard") == 0 {
		t.Error("no duplicate was discarded — the wrap path went unexercised")
	}
}

// stubView is a hand-driven DeviceView for channel-level tests.
type stubView struct {
	usable bool
	epoch  uint8
}

func (v *stubView) Usable(int) bool { return v.usable }
func (v *stubView) Epoch(int) uint8 { return v.epoch }

// TestChannelEpochReject delays every frame past an epoch bump: the
// stale-epoch arrivals must be rejected (recover.epoch-reject) and the
// payload recovered by a retransmission stamped with the new epoch —
// exactly once.
func TestChannelEpochReject(t *testing.T) {
	cfg := fault.Config{
		Seed:        23,
		DelayPer10k: 10_000,
		DelayCycles: 100_000,
	}
	k := sim.NewKernel()
	f, err := New(1, DefaultParams(), AckHost)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(k, cfg)
	f.SetFaults(k, inj)
	v := &stubView{usable: true}
	f.SetMembership(v)

	delivered := 0
	k.Spawn("sender", func(p *sim.Proc) {
		f.PostH2D(p, 0, 512, func() { delivered++ })
	})
	// The device's incarnation changes while the frame is in flight.
	k.At(50_000, func() { v.epoch = 1 })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once", delivered)
	}
	if inj.Stat("recover.epoch-reject") == 0 {
		t.Error("no stale-epoch frame was rejected")
	}
	if got := len(f.chans[0].h2d.outstanding); got != 0 {
		t.Errorf("backlog %d after recovery, want 0", got)
	}
}

// TestChannelHoldAndReplay posts into a down device: the frame must be
// journaled without burning the wire or a retransmission attempt, and a
// rejoin replay must deliver it in the new epoch.
func TestChannelHoldAndReplay(t *testing.T) {
	k := sim.NewKernel()
	f, err := New(1, DefaultParams(), AckHost)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(k, fault.Config{Seed: 1})
	f.SetFaults(k, inj)
	v := &stubView{usable: false}
	f.SetMembership(v)

	delivered := 0
	var deliveredAt sim.Cycles
	k.Spawn("sender", func(p *sim.Proc) {
		f.PostH2D(p, 0, 256, func() { delivered++; deliveredAt = k.Now() })
		p.Delay(200_000)
		if delivered != 0 {
			t.Error("frame delivered while the device was down")
		}
		v.usable = true
		v.epoch = 1
		frames, bytes := f.ReplayDevice(p, 0)
		if frames != 1 || bytes != 256 {
			t.Errorf("replayed %d frames / %d bytes, want 1 / 256", frames, bytes)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once after replay", delivered)
	}
	if deliveredAt < 200_000 {
		t.Errorf("delivery at cycle %d, before the rejoin", deliveredAt)
	}
	if got := len(f.chans[0].h2d.outstanding); got != 0 {
		t.Errorf("backlog %d after replay, want 0", got)
	}
}
