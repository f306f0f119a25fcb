package vscc

// Device-level crash recovery (DESIGN.md §8): epoch-based membership,
// crash-consistent checkpoints and drain/replay failover for whole SCC
// devices. The research system's five boards fail independently — a
// board-level power glitch or a PCIe link drop takes 48 cores away at
// once, and the previous prototype had no answer short of restarting
// the whole 240-core run. Membership models the failure as a per-device
// state machine
//
//	Up -> Draining -> Down -> Rejoining -> Up
//
// with three guarantees:
//
//   - Epochs: every SIF frame is stamped with the target device's
//     membership epoch (pcie.Header.Epoch). The epoch advances when the
//     device goes down, so pre-crash traffic surfacing after the rejoin
//     is rejected at the framing layer and recovered by re-stamped
//     retransmission — cross-epoch confusion is structurally impossible.
//   - Checkpoints: a kernel-clock-driven daemon snapshots each device's
//     on-chip memory at quiesce points; every store since is applied to
//     that image in place (scc write observer -> ckpt.Log), so it is the
//     crash-point image byte-exactly at any instant.
//   - Drain/replay: on a crash the device first drains — committed
//     in-flight transfers land, in memory and in the checkpoint image —
//     then goes down: its memory is wiped, the host marks it
//     unreachable, and every frame still in the PCIe journals is held.
//     On rejoin the memory image is restored, the fabric replays the
//     held frames in sequence order in the new epoch, and blocked peers
//     resume. The run completes byte-identically to a fault-free
//     execution.
//
// A link-down fault is the lighter variant: the wire dies but the board
// keeps power, so there is no wipe/restore — cores keep computing
// on-chip and only off-chip traffic is held and replayed.

import (
	"fmt"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/pcie"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// devRecord is the membership state of one device: its lifecycle
// (lifecycle.go, shared with the PDES engine) plus what only the
// single-kernel engine needs — peers parked on the rejoin, and the
// journal replay that follows it.
type devRecord struct {
	devLifecycle
	// up wakes peers blocked in AwaitUp on every return to DevUp.
	up *sim.Cond
	// replaying is set from the moment the device leaves DevUp until its
	// rejoin's journal replay has finished, so AfterReplay hooks
	// registered anywhere in that window fire only once the restored
	// memory is quiescent.
	replaying bool
	// afterReplay holds the one-shot hooks to run (in registration
	// order) once the next rejoin's journal replay completes.
	afterReplay []func()
}

// Membership is the device-level membership manager of a vSCC. It is
// only constructed when the fault schedule contains device faults
// (fault.Config.DeviceFaultsArmed); every other configuration runs with
// a nil manager on byte-identical code paths.
type Membership struct {
	k      *sim.Kernel
	fabric *pcie.Fabric
	task   *host.Task
	inj    *fault.Injector

	devs   []*devRecord
	rejoin sim.Cycles

	// pending counts scheduled device faults that have not finished
	// their lifecycle. The periodic checkpoint timers stop once it hits
	// zero, so the event queue drains and Kernel.Run can terminate.
	pending int
}

// Statically assert the framing-layer contract.
var _ pcie.DeviceView = (*Membership)(nil)

// newMembership wires the manager into the chips (lifecycle gates and
// checkpoint logs), the fabric (epoch stamping and journal holds)
// and the host task (reachability gates), takes the boot checkpoint of
// every device, and schedules the configured device faults.
func newMembership(k *sim.Kernel, chips []*scc.Chip, fabric *pcie.Fabric, task *host.Task, inj *fault.Injector) *Membership {
	cfg := inj.Config()
	rejoin, interval := outageTimes(cfg)
	m := &Membership{k: k, fabric: fabric, task: task, inj: inj, rejoin: rejoin}
	for d, chip := range chips {
		rec := &devRecord{
			devLifecycle: devLifecycle{k: k, dev: d, chip: chip},
			up:           sim.NewCond(k, fmt.Sprintf("dev%d.rejoin", d)),
		}
		rec.arm()
		m.devs = append(m.devs, rec)
		// Periodic checkpoints run as a self-rescheduling timer chain,
		// not a Delay-looping daemon: the chain stops once every
		// scheduled fault has completed, so the kernel's event queue can
		// drain and Run terminates.
		var tick func()
		tick = func() {
			if m.pending == 0 {
				return
			}
			rec.checkpoint()
			k.After(interval, tick)
		}
		k.After(interval, tick)
	}
	fabric.SetMembership(m)
	m.pending = len(cfg.DevCrashAt) + len(cfg.DevLinkDownAt)
	for _, df := range cfg.DevCrashAt {
		k.At(df.At, func() { m.fail(df, true) })
	}
	for _, df := range cfg.DevLinkDownAt {
		k.At(df.At, func() { m.fail(df, false) })
	}
	return m
}

// Instrument attaches the observability sink (nil-safe, like the
// injector's).
func (m *Membership) Instrument(s *trace.Sink) {
	if m == nil {
		return
	}
	for _, rec := range m.devs {
		rec.sink = s
	}
}

// Usable implements pcie.DeviceView: frames may use the wire while the
// device is up or draining.
func (m *Membership) Usable(dev int) bool {
	s := m.devs[dev].state
	return s == DevUp || s == DevDraining
}

// Epoch implements pcie.DeviceView.
func (m *Membership) Epoch(dev int) uint8 { return m.devs[dev].epoch }

// Lost reports whether the device is currently unreachable — the
// condition the protocol recovery ladders distinguish from an ordinary
// lost flag write.
func (m *Membership) Lost(dev int) bool { return m.devs[dev].lost() }

// State returns the device's membership state.
//
//lint:ignore deadexport the root and taskrt recovery tests check that a crashed device came back up
func (m *Membership) State(dev int) DevState { return m.devs[dev].state }

// Quiesced reports whether the device is up with no rejoin replay in
// flight — the condition under which its memory belongs entirely to the
// current epoch and a supervisor may reclaim its cores.
func (m *Membership) Quiesced(dev int) bool {
	rec := m.devs[dev]
	return rec.state == DevUp && !rec.replaying
}

// AwaitUp parks p until the device is back up. Used by the transparent
// retry path (fault spec devretry=1).
func (m *Membership) AwaitUp(p *sim.Proc, dev int) {
	rec := m.devs[dev]
	for rec.state != DevUp {
		rec.up.Wait(p)
	}
}

// AfterReplay registers a one-shot hook that runs once the device is
// back up AND its rejoin journal replay has finished — the first point
// at which the device's memory is quiescent, so a supervisor may tear
// down and reuse the device's cores without replayed pre-crash frames
// landing on top (the scheduler's devretry requeue path). A hook
// registered while the device is up with no replay in flight runs as a
// kernel event at the current cycle. Hooks run in registration order,
// in kernel context.
func (m *Membership) AfterReplay(dev int, fn func()) {
	if m.Quiesced(dev) {
		m.k.At(m.k.Now(), fn)
		return
	}
	m.devs[dev].afterReplay = append(m.devs[dev].afterReplay, fn)
}

// fail runs one scheduled device fault through the device's lifecycle.
// Once the device is down the host marks it unreachable, and every frame
// toward or from it is held in the senders' journals until the rejoin.
func (m *Membership) fail(df fault.DeviceFault, wipe bool) {
	d := df.Dev
	if d < 0 || d >= len(m.devs) {
		m.pending-- // out-of-range device: the fault retires unused
		return
	}
	rec := m.devs[d]
	started := rec.crash(downFor(df, m.rejoin), wipe,
		func() { m.task.DeviceDown(d) },
		func() { m.rejoined(rec, wipe) })
	if !started {
		m.pending-- // void fault (overlapping schedule) still retires
		return
	}
	kind := "devlinkdown"
	if wipe {
		kind = "devcrash"
	}
	m.inj.RecordInjection(kind, "vscc.device", d)
	rec.replaying = true // until the rejoin replay completes
}

// rejoined finishes the rejoin of a device whose memory is restored:
// open the gates, wake blocked peers, and replay the held PCIe journals
// in the new epoch.
func (m *Membership) rejoined(rec *devRecord, wipe bool) {
	d := rec.dev
	if wipe {
		rec.gate.Open()
	}
	m.task.DeviceUp(d)
	m.inj.RecordRecovery("rejoin", "vscc.device", d)
	m.pending--
	rec.up.Broadcast()
	m.k.Spawn(fmt.Sprintf("replay.d%d", d), func(p *sim.Proc) {
		frames, bytes := m.fabric.ReplayDevice(p, d)
		rec.count("replay.frames", int64(frames))
		rec.count("replay.frame_bytes", int64(bytes))
		rec.replaying = false
		hooks := rec.afterReplay
		rec.afterReplay = nil
		for _, fn := range hooks {
			fn()
		}
	})
}
