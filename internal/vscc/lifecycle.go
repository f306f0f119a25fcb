package vscc

import (
	"fmt"
	"strconv"

	"vscc/internal/ckpt"
	"vscc/internal/fault"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// DevState is one device's membership state.
type DevState int

// The membership states, in lifecycle order.
const (
	// DevUp: fully operational.
	DevUp DevState = iota
	// DevDraining: a fault fired; committed in-flight traffic still
	// lands (the wire stays usable) but crashed cores are already
	// frozen. Lasts fault.DefaultDrainCycles.
	DevDraining
	// DevDown: the device is gone — memory wiped (crash) or the link
	// dead (link-down); all traffic toward and from it is held.
	DevDown
	// DevRejoining: the checkpoint image is being restored; passed
	// through atomically on the way back to DevUp.
	DevRejoining
)

// String names the state for test failures and traces.
func (s DevState) String() string {
	switch s {
	case DevUp:
		return "up"
	case DevDraining:
		return "draining"
	case DevDown:
		return "down"
	case DevRejoining:
		return "rejoining"
	}
	return "invalid"
}

// devLifecycle is one device's crash-recovery state machine
//
//	Up -> Draining -> Down -> Rejoining -> Up
//
// with its epoch, lifecycle gate, checkpoint log and crash-point image,
// written once for both engines: Membership keeps one per device on the
// single kernel, every pdesPort embeds its own on its device's kernel.
// What the engines do differently — who holds the traffic of a down
// device and how it is replayed — enters through the hooks of crash.
type devLifecycle struct {
	// k is the kernel that simulates the device; set, with dev and chip,
	// by whoever embeds the lifecycle.
	k    *sim.Kernel
	dev  int
	chip *scc.Chip
	sink *trace.Sink

	state DevState
	epoch uint8
	// gate is the chip lifecycle gate: closed while the device is
	// crashed, so its cores freeze at their next memory operation and
	// thaw on rejoin (the core image rides along with the checkpoint).
	gate *sim.Gate
	// log is the device's crash-consistent checkpoint state.
	log *ckpt.Log
	// img is the restore image captured at the crash point, with the
	// totals of the stores rolled into it since the last checkpoint, for
	// the replay.* counters.
	img                 [][]byte
	imgWrites, imgBytes int
	// views is the reused slice of live bank views a checkpoint reads.
	views [][]byte
}

// arm wires the lifecycle into its chip — the gate, and the store
// observer rolling every write into the checkpoint image — and takes
// checkpoint zero, the boot image. It guarantees a restore base exists
// even for a crash before the first interval tick; the replay.* counters
// then cover the whole history, each periodic checkpoint restarts them.
func (l *devLifecycle) arm() {
	l.gate = sim.NewGate(l.k, fmt.Sprintf("dev%d.alive", l.dev))
	l.gate.Open()
	l.log = ckpt.NewLog()
	l.chip.SetLifecycleGate(l.gate)
	l.chip.SetWriteObserver(func(tile, off int, data []byte) {
		l.log.Note(tile, off, data)
	})
	l.snapshot()
}

// snapshot checkpoints the chip's live memory: the log copies the bank
// views, so no intermediate image is built.
func (l *devLifecycle) snapshot() {
	l.views = l.chip.ViewLMB(l.views)
	l.log.Checkpoint(l.views)
}

// outageTimes returns a fault schedule's default outage length and its
// checkpoint interval.
func outageTimes(cfg fault.Config) (rejoin, interval sim.Cycles) {
	rejoin, interval = cfg.RejoinCycles, cfg.CkptInterval
	if rejoin <= 0 {
		rejoin = fault.DefaultRejoinCycles
	}
	if interval <= 0 {
		interval = fault.DefaultCkptInterval
	}
	return rejoin, interval
}

// downFor returns how long one scheduled fault keeps its device down.
func downFor(df fault.DeviceFault, rejoin sim.Cycles) sim.Cycles {
	if df.Down > 0 {
		return df.Down
	}
	return rejoin
}

// count records a lifecycle counter and its per-device mirror. The
// dynamic per-device name is only built once the sink is known enabled.
func (l *devLifecycle) count(name string, v int64) {
	if !l.sink.Enabled() {
		return
	}
	l.sink.Add(name, v)
	l.sink.Add(name+".d"+strconv.Itoa(l.dev), v)
}

// lost reports whether the device is currently unreachable.
func (l *devLifecycle) lost() bool { return l.state == DevDown || l.state == DevRejoining }

// checkpoint takes one periodic snapshot of an up device. A draining or
// down device is skipped: its image is frozen at the crash point.
func (l *devLifecycle) checkpoint() {
	if l.state != DevUp {
		return
	}
	l.snapshot()
	total := 0
	for _, b := range l.views {
		total += len(b)
	}
	l.count("ckpt.take", 1)
	l.count("ckpt.bytes", int64(total))
}

// crash runs one scheduled outage: drain for fault.DefaultDrainCycles, go
// down for outage cycles, rejoin. A wipe (device crash) freezes the cores and
// loses the memory; without it (link-down) the board keeps power and only
// the wire dies. down runs once the device is down, up once it is back up
// with its memory restored. A fault that finds the device not up
// (overlapping windows) is void: crash does nothing and reports false.
func (l *devLifecycle) crash(outage sim.Cycles, wipe bool, down, up func()) bool {
	if l.state != DevUp {
		return false
	}
	l.state = DevDraining
	if wipe {
		// Cores freeze at their next memory operation; a link-down
		// leaves them computing on intact local memory.
		l.gate.Close()
	}
	l.k.After(fault.DefaultDrainCycles, func() {
		l.goDown(wipe)
		down()
		l.k.After(outage, func() {
			l.restore(wipe)
			up()
		})
	})
	return true
}

// goDown completes the crash: the epoch advances, the crash-point image
// is copied out of the checkpoint log (a store that reaches the down
// device later must not leak into it) and on-chip memory is lost.
func (l *devLifecycle) goDown(wipe bool) {
	l.state = DevDown
	l.epoch++
	l.count("epoch.advance", 1)
	if wipe {
		l.img, l.imgWrites, l.imgBytes = l.log.Restore()
		l.chip.WipeLMB()
	}
}

// restore brings the memory back: load the crash-point image and
// checkpoint it, so a second crash rolls forward from here, not from the
// pre-crash checkpoint. The gate stays closed: the engine opens it once
// its held traffic is where it must be.
func (l *devLifecycle) restore(wipe bool) {
	l.state = DevRejoining
	if wipe {
		l.chip.LoadLMB(l.img)
		l.count("replay.writes", int64(l.imgWrites))
		l.count("replay.bytes", int64(l.imgBytes))
		l.img = nil
		l.snapshot()
	}
	l.state = DevUp
}
