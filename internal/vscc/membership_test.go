package vscc

import (
	"bytes"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/mem"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

// TestMembershipLifecycle drives one scheduled device crash through the
// full state machine and samples the membership state from kernel
// callbacks: Up until the fault fires, Draining for DefaultDrainCycles
// (wire still usable so committed traffic lands), Down with the epoch
// advanced and the wire refused, and Up again after the down window.
func TestMembershipLifecycle(t *testing.T) {
	const (
		crashAt = sim.Cycles(100_000)
		down    = sim.Cycles(300_000)
	)
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{
		Devices: 2,
		Scheme:  SchemeCachedGet,
		Faults: &fault.Config{
			Seed:       1,
			DevCrashAt: []fault.DeviceFault{{At: crashAt, Dev: 1, Down: down}},
			Recovery:   fault.Recovery{DeviceRetry: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Membership
	if m == nil {
		t.Fatal("device fault scheduled but no membership manager built")
	}

	type sample struct {
		at     sim.Cycles
		state  DevState
		epoch  uint8
		usable bool
	}
	var got []sample
	probe := func(at sim.Cycles) {
		k.At(at, func() {
			got = append(got, sample{at, m.State(1), m.Epoch(1), m.Usable(1)})
		})
	}
	drainMid := crashAt + fault.DefaultDrainCycles/2
	downStart := crashAt + fault.DefaultDrainCycles
	rejoinAt := downStart + down
	probe(crashAt - 1)     // still up
	probe(drainMid)        // draining, wire usable
	probe(downStart + 1)   // down, epoch advanced, wire refused
	probe(rejoinAt - 1)    // still down
	probe(rejoinAt + 1)    // back up
	probe(rejoinAt + 1000) // stays up

	// A long-enough workload keeps ranks alive across the whole outage.
	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		buf := make([]byte, 4096)
		for rep := 0; rep < 16; rep++ {
			if r.ID() == 0 {
				if err := r.Send(1, buf); err != nil {
					panic(err)
				}
				if err := r.Recv(1, buf); err != nil {
					panic(err)
				}
			} else {
				if err := r.Recv(0, buf); err != nil {
					panic(err)
				}
				if err := r.Send(0, buf); err != nil {
					panic(err)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run did not survive the crash: %v", err)
	}

	want := []sample{
		{crashAt - 1, DevUp, 0, true},
		{drainMid, DevDraining, 0, true},
		{downStart + 1, DevDown, 1, false},
		{rejoinAt - 1, DevDown, 1, false},
		{rejoinAt + 1, DevUp, 1, true},
		{rejoinAt + 1000, DevUp, 1, true},
	}
	if len(got) != len(want) {
		t.Fatalf("sampled %d probes, want %d (run too short?)", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("probe %d at cycle %d: got {state=%v epoch=%d usable=%v}, want {state=%v epoch=%d usable=%v}",
				i, w.at, got[i].state, got[i].epoch, got[i].usable, w.state, w.epoch, w.usable)
		}
	}

	// Device 0 never faulted: untouched state, epoch zero.
	if m.State(0) != DevUp || m.Epoch(0) != 0 {
		t.Errorf("device 0 disturbed: state=%v epoch=%d", m.State(0), m.Epoch(0))
	}
	// The lifecycle leaves the ledger balanced: one injection, one rejoin.
	if got := sys.Injector.Stat("inject.devcrash"); got != 1 {
		t.Errorf("inject.devcrash = %d, want 1", got)
	}
	if got := sys.Injector.Stat("recover.rejoin"); got != 1 {
		t.Errorf("recover.rejoin = %d, want 1", got)
	}
}

// TestMembershipVoidOverlap schedules a second fault inside the first
// outage window: it must be void (the device is not up), retire from the
// pending count so the run still terminates, and leave a single epoch
// advance.
func TestMembershipVoidOverlap(t *testing.T) {
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{
		Devices: 2,
		Scheme:  SchemeCachedGet,
		Faults: &fault.Config{
			Seed: 1,
			DevCrashAt: []fault.DeviceFault{
				{At: 100_000, Dev: 1, Down: 300_000},
				{At: 200_000, Dev: 1, Down: 300_000}, // inside the first outage: void
			},
			Recovery: fault.Recovery{DeviceRetry: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		buf := make([]byte, 4096)
		for rep := 0; rep < 16; rep++ {
			if r.ID() == 0 {
				if err := r.Send(1, buf); err != nil {
					panic(err)
				}
			} else if err := r.Recv(0, buf); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := sys.Injector.Stat("inject.devcrash"); got != 1 {
		t.Errorf("inject.devcrash = %d, want 1 (the overlapping fault must be void)", got)
	}
	if ep := sys.Membership.Epoch(1); ep != 1 {
		t.Errorf("epoch = %d, want 1", ep)
	}
}

// TestMembershipBackToBackCrash drives two real outages of the same
// device separated only by the rejoin, with a third schedule entry
// landing mid-drain. The mid-drain fault must be void (no second drain
// restart, no injection); the post-rejoin fault is a genuine second
// crash — it may land while the rejoin journal replay is still in
// flight and must run a full second lifecycle with its own epoch
// advance. The workload survives both outages transparently.
func TestMembershipBackToBackCrash(t *testing.T) {
	const (
		firstAt  = sim.Cycles(100_000)
		firstDur = sim.Cycles(300_000) // down 150k..450k
		midDrain = sim.Cycles(120_000) // inside 100k..150k: void
		secondAt = sim.Cycles(460_000) // 10k after the rejoin
		secondD  = sim.Cycles(300_000) // down 510k..810k
	)
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{
		Devices: 2,
		Scheme:  SchemeCachedGet,
		Faults: &fault.Config{
			Seed: 1,
			DevCrashAt: []fault.DeviceFault{
				{At: firstAt, Dev: 1, Down: firstDur},
				{At: midDrain, Dev: 1, Down: firstDur},
				{At: secondAt, Dev: 1, Down: secondD},
			},
			Recovery: fault.Recovery{DeviceRetry: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Membership

	type sample struct {
		at    sim.Cycles
		state DevState
		epoch uint8
	}
	var got []sample
	probe := func(at sim.Cycles) {
		k.At(at, func() { got = append(got, sample{at, m.State(1), m.Epoch(1)}) })
	}
	probe(midDrain + 10_000) // still the FIRST drain; the void fault must not restart it
	probe(firstAt + fault.DefaultDrainCycles + 1)
	probe(secondAt + 1) // second crash accepted: draining again
	probe(secondAt + fault.DefaultDrainCycles + 1)
	probe(secondAt + fault.DefaultDrainCycles + secondD + 1)

	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		buf := make([]byte, 4096)
		for rep := 0; rep < 24; rep++ {
			if r.ID() == 0 {
				if err := r.Send(1, buf); err != nil {
					panic(err)
				}
				if err := r.Recv(1, buf); err != nil {
					panic(err)
				}
			} else {
				if err := r.Recv(0, buf); err != nil {
					panic(err)
				}
				if err := r.Send(0, buf); err != nil {
					panic(err)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run did not survive back-to-back crashes: %v", err)
	}

	want := []sample{
		{midDrain + 10_000, DevDraining, 0},
		{firstAt + fault.DefaultDrainCycles + 1, DevDown, 1},
		{secondAt + 1, DevDraining, 1},
		{secondAt + fault.DefaultDrainCycles + 1, DevDown, 2},
		{secondAt + fault.DefaultDrainCycles + secondD + 1, DevUp, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("sampled %d probes, want %d (run too short?)", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("probe %d at cycle %d: got {state=%v epoch=%d}, want {state=%v epoch=%d}",
				i, w.at, got[i].state, got[i].epoch, w.state, w.epoch)
		}
	}
	if got := sys.Injector.Stat("inject.devcrash"); got != 2 {
		t.Errorf("inject.devcrash = %d, want 2 (mid-drain fault must be void)", got)
	}
	if got := sys.Injector.Stat("recover.rejoin"); got != 2 {
		t.Errorf("recover.rejoin = %d, want 2", got)
	}
	if ep := sys.Membership.Epoch(1); ep != 2 {
		t.Errorf("final epoch = %d, want 2", ep)
	}
}

// TestCrashRestoresObservedStores crashes one device's lifecycle with
// stores of every kind around a checkpoint: core lines through the WCB
// before it, host stores after it and in the drain window. The image
// loaded at rejoin is the banks as they were just before the wipe, except
// for one store that bypassed the write observer: the crash loses it. A
// store that reaches the device while it is down neither leaks into the
// image nor survives the rejoin.
func TestCrashRestoresObservedStores(t *testing.T) {
	const crashAt = sim.Cycles(10_000)
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	l := &devLifecycle{k: k, dev: 0, chip: chip}
	l.arm()
	chip.Launch(0, "writer", func(ctx *scc.Ctx) {
		ctx.WriteMPB(0, 0, 0, bytes.Repeat([]byte{0x5A}, 3*mem.LineSize)) // full lines
		ctx.WriteMPB(0, 7, 100, []byte("partial"))
		ctx.FlushWCB()
	})
	k.At(crashAt/2, l.checkpoint)
	k.At(crashAt/2+1, func() { chip.HostWriteLMB(3, 64, []byte("after the checkpoint")) })

	bypass := []byte("unobserved")
	var live, restored [][]byte
	k.At(crashAt, func() {
		l.crash(20_000, true,
			func() {
				chip.HostWriteLMB(3, 200, []byte("while down"))
				chip.HostWriteLMB(11, 0, []byte("while down")) // an all-zero bank
			},
			func() { restored = chip.SnapshotLMB() })
	})
	// Mid-drain: the last stores before the wipe, nothing runs after them.
	k.At(crashAt+fault.DefaultDrainCycles/2, func() {
		chip.HostWriteLMB(5, 0, []byte("drained"))
		chip.Tiles[9].LMB.Write(32, bypass)
		live = chip.SnapshotLMB()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if live == nil || restored == nil {
		t.Fatal("the crash did not run to its rejoin")
	}

	want := live
	copy(want[9][32:], make([]byte, len(bypass))) // the crash loses it
	for i := range want {
		if !bytes.Equal(restored[i], want[i]) {
			t.Errorf("tile %d: restored image differs from the banks before the wipe", i)
		}
	}
	if !bytes.Equal(restored[0][:3*mem.LineSize], bytes.Repeat([]byte{0x5A}, 3*mem.LineSize)) ||
		string(restored[7][100:107]) != "partial" || string(restored[5][:7]) != "drained" {
		t.Error("an observed store is missing from the restored image")
	}
	if w, n := l.imgWrites, l.imgBytes; w != 2 || n != len("after the checkpoint")+len("drained") {
		t.Errorf("image rolled %d stores / %d bytes past the checkpoint, want 2 / %d", w, n, len("after the checkpoint")+len("drained"))
	}
}

// TestMembershipNotBuiltWithoutDeviceFaults pins the arming condition:
// a fault config without device faults must leave Membership nil, so
// every non-device-fault run keeps its byte-identical code paths.
func TestMembershipNotBuiltWithoutDeviceFaults(t *testing.T) {
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{
		Devices: 2,
		Scheme:  SchemeCachedGet,
		Faults:  &fault.Config{Seed: 1, DropPer10k: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Membership != nil {
		t.Error("membership manager built without any device fault scheduled")
	}
}
