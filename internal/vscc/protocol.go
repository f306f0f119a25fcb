package vscc

import (
	"fmt"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

// lastCmd is the last vDMA command a pair's sender programmed; the
// recovery ladder re-issues it when a wait on its effects times out
// (re-copying the newest chunk is idempotent: same data, same flag
// values, and flag counters never move backward under re-issue).
type lastCmd struct {
	cmd host.BankCommand
	ok  bool
}

// seqVal encodes a chunk sequence number as a non-zero flag byte.
func seqVal(s uint64) byte { return byte((s-1)%255) + 1 }

// interDeviceProtocol is the session wire protocol of a vSCC: same-device
// pairs use the base (on-chip) protocol, cross-device pairs the
// configured host-accelerated scheme.
type interDeviceProtocol struct {
	base rcce.Protocol
	// desc is the scheme's row of the schemes table; threshold its direct
	// cutoff, or the configured override.
	desc      *schemeDesc
	threshold int
	// out and in hold the vDMA scheme's persistent chunk counters (its
	// flags are value-encoded and never cleared, so no reset races exist
	// across messages): out[src][dst] counts the chunks src issued to
	// dst, in[dst][src] those dst drained from src. Each row is
	// allocated on first use by its rank, the only one that touches it —
	// under PDES a pair's sender and receiver run on different kernels,
	// so a shared structure mutated on first use would race.
	out, in [][]uint64
	nRanks  int
	// cmds holds, per sender rank, a row of lastCmd per receiver,
	// allocated by the sender's first engaged vDMA send. Only the
	// sender's kernel touches its row — the single-writer argument of
	// published.
	cmds [][]lastCmd
	// slot is the vDMA double-buffer slot size: vdmaHalf unless the
	// ablation knob overrides it. At most half the payload area.
	slot int
	// published tracks, per sender rank, how many bytes of its MPB the
	// host cache currently mirrors; the sender invalidates that range
	// before every reuse (§3.1's explicit consistency control). A slice
	// (single-writer per rank) for the same PDES reason as out and in.
	published []int

	// faults/rec arm the recovery ladder on every engaged wait: nil
	// faults means waits run unbudgeted on the exact same code path.
	faults *fault.Injector
	rec    fault.Recovery
	// mem is the device membership manager; nil unless the fault
	// schedule contains device crash/link-down faults.
	mem *Membership
}

// newProtocol builds the wire protocol of an n-rank session running
// scheme, with the fault machinery disarmed.
func (cfg Config) newProtocol(scheme Scheme, n int) (*interDeviceProtocol, error) {
	if cfg.VDMASlotBytes > rcce.PayloadBytes/2 {
		return nil, fmt.Errorf("vscc: vDMA slot %d exceeds half the payload area (%d)", cfg.VDMASlotBytes, rcce.PayloadBytes/2)
	}
	ip := &interDeviceProtocol{
		base:      rcce.DefaultProtocol{},
		desc:      scheme.desc(),
		threshold: cfg.DirectThreshold,
		slot:      vdmaHalf,
		out:       make([][]uint64, n),
		in:        make([][]uint64, n),
		nRanks:    n,
		cmds:      make([][]lastCmd, n),
		published: make([]int, n),
	}
	if ip.threshold == 0 {
		ip.threshold = ip.desc.threshold
	}
	if cfg.VDMASlotBytes > 0 {
		ip.slot = cfg.VDMASlotBytes
	}
	return ip, nil
}

// waitLadder runs one engaged wait under the recovery ladder: each
// attempt gets a doubling cycle budget; between attempts the rearm
// action (if any) re-issues the operation whose effect the wait is for.
// Exhausting the ladder panics the rank with a deterministic error
// (surfaced by Kernel.Run), never a silent deadlock.
//
// peer is the rank on the far side of the wait. When a membership
// manager is armed and the peer's device went down (or restarted into a
// new epoch) mid-wait, the failure is a device loss, not a lost flag
// write: with transparent retry (devretry=1) the ladder parks until the
// device rejoins — the checkpoint-restore replay then completes the
// handshake, and an operation the outage lost is re-issued by the next
// attempt's rearm — and without it the rank fails deterministically
// with rcce.ErrDeviceLost.
func (ip *interDeviceProtocol) waitLadder(r *rcce.Rank, site string, peer int, wait func(sim.Cycles) bool, rearm func()) {
	if ip.faults == nil {
		wait(0)
		return
	}
	dev := r.Session().PlaceOf(r.ID()).Dev
	peerDev := r.Session().PlaceOf(peer).Dev
	var epoch0 uint8
	if ip.mem != nil {
		epoch0 = ip.mem.Epoch(peerDev)
	}
	budget := ip.rec.WaitBudget
	for a := 0; ; a++ {
		if wait(budget) {
			if a > 0 {
				ip.faults.RecordRecovery("wait-ok", site, -1)
			}
			return
		}
		if ip.mem != nil && (ip.mem.Lost(peerDev) || ip.mem.Epoch(peerDev) != epoch0) {
			if !ip.rec.DeviceRetry {
				panic(fmt.Errorf("vscc: %s: rank %d: device %d lost at cycle %d: %w",
					site, r.ID(), peerDev, r.Now(), rcce.ErrDeviceLost))
			}
			ip.faults.RecordRecovery("device-wait", site, peerDev)
			ip.mem.AwaitUp(r.Ctx().Proc, peerDev)
			epoch0 = ip.mem.Epoch(peerDev)
			a-- // a device outage consumes no ladder attempt
			continue
		}
		if a >= ip.rec.MaxWaitRetries {
			panic(fmt.Sprintf("vscc: %s: rank %d lost completion after %d retries at cycle %d", site, r.ID(), a, r.Now()))
		}
		ip.faults.RecordRecovery("wait-retry", site, dev)
		if rearm != nil {
			rearm()
		}
		budget *= 2
	}
}

// awaitReady and awaitSent are the clear-based handshake waits under the
// ladder. Their flag writes recover at the host (write-verify) and on
// the fabric (replay), so they carry no rearm action of their own.
func (ip *interDeviceProtocol) awaitReady(r *rcce.Rank, dest int) {
	ip.waitLadder(r, "vscc.ready", dest, func(b sim.Cycles) bool { return r.AwaitReadyFor(dest, b) }, nil)
}

func (ip *interDeviceProtocol) awaitSent(r *rcce.Rank, src int) {
	ip.waitLadder(r, "vscc.sent", src, func(b sim.Cycles) bool { return r.AwaitSentFor(src, b) }, nil)
}

// rearmVDMA returns the re-programming action for a pair's newest vDMA
// command (nil before the first command).
func (ip *interDeviceProtocol) rearmVDMA(r *rcce.Rank, last *lastCmd) func() {
	return func() {
		if !last.ok {
			return
		}
		ip.faults.RecordRecovery("vdma-rearm", "vscc.vdma", r.Session().PlaceOf(r.ID()).Dev)
		ip.mmio(r, last.cmd)
	}
}

// degraded reports whether the fast path toward peer should fall back to
// direct remote puts: either endpoint's device has crossed the
// injector's recovery threshold. Evaluated per message; the fallbacks
// are flag-compatible with the unmodified receiver paths, so only the
// sender changes behaviour.
func (ip *interDeviceProtocol) degraded(r *rcce.Rank, peer int) bool {
	return ip.faults.Degraded(r.Session().PlaceOf(r.ID()).Dev) ||
		ip.faults.Degraded(r.Session().PlaceOf(peer).Dev)
}

// Name implements rcce.Protocol.
func (ip *interDeviceProtocol) Name() string {
	return fmt.Sprintf("vscc(%s, on-chip %s)", ip.desc.name, ip.base.Name())
}

// counter returns rank's chunk counter toward peer in rows (ip.out or
// ip.in); only rank's own process may call it.
func (ip *interDeviceProtocol) counter(rows [][]uint64, rank, peer int) *uint64 {
	if rows[rank] == nil {
		rows[rank] = make([]uint64, ip.nRanks)
	}
	return &rows[rank][peer]
}

// lastCmd returns the slot of src's newest vDMA command toward dst; only
// src's own process may call it.
func (ip *interDeviceProtocol) lastCmd(src, dst int) *lastCmd {
	if ip.cmds[src] == nil {
		ip.cmds[src] = make([]lastCmd, ip.nRanks)
	}
	return &ip.cmds[src][dst]
}

// engaged reports whether an n-byte message engages the host machinery:
// at or below the threshold the core moves the payload itself.
func (ip *interDeviceProtocol) engaged(n int) bool {
	return ip.threshold <= 0 || n > ip.threshold
}

// Send implements rcce.Protocol.
func (ip *interDeviceProtocol) Send(r *rcce.Rank, dest int, data []byte) {
	if r.Session().SameDevice(r.ID(), dest) {
		ip.base.Send(r, dest, data)
		return
	}
	if len(data) == 0 {
		return
	}
	engaged := ip.engaged(len(data))
	// Per-scheme message-size histogram of the inter-device traffic, plus
	// the direct-vs-engaged split of the §3.3 threshold. Recorded via the
	// rank's own (per-device under PDES) sink.
	if sink := r.Sink(); sink.Enabled() {
		sink.Observe("vscc."+ip.desc.key+".msg_size", float64(len(data)))
		if engaged {
			sink.Add("vscc.engaged_sends", 1)
		} else {
			sink.Add("vscc.direct_sends", 1)
		}
	}
	// Promotion hysteresis: a transfer that completes without any
	// recovery on either endpoint device counts toward re-promoting a
	// degraded device (fault.Injector.CleanTransfer).
	var myDev, peerDev, recBase int
	if ip.faults != nil {
		myDev = r.Session().PlaceOf(r.ID()).Dev
		peerDev = r.Session().PlaceOf(dest).Dev
		recBase = ip.faults.RecoveryCount(myDev) + ip.faults.RecoveryCount(peerDev)
	}
	switch {
	case ip.desc.flow == flowSeq:
		ip.seqSend(r, dest, data, engaged)
	case ip.desc.flow == flowRCCE && engaged:
		// The default RCCE protocol over the (slow) transparent path.
		rcce.DefaultProtocol{}.Send(r, dest, data)
	default:
		ip.flagSend(r, dest, data, engaged)
	}
	if ip.faults != nil && ip.faults.RecoveryCount(myDev)+ip.faults.RecoveryCount(peerDev) == recBase {
		ip.faults.CleanTransfer(myDev)
		ip.faults.CleanTransfer(peerDev)
	}
}

// Recv implements rcce.Protocol. Only the RCCE flow needs to know whether
// the sender engaged: in both families a direct message reaches the
// receiver exactly as an engaged one of that size would.
func (ip *interDeviceProtocol) Recv(r *rcce.Rank, src int, buf []byte) {
	if r.Session().SameDevice(r.ID(), src) {
		ip.base.Recv(r, src, buf)
		return
	}
	if len(buf) == 0 {
		return
	}
	switch {
	case ip.desc.flow == flowSeq:
		ip.seqRecv(r, src, buf)
	case ip.desc.flow == flowRCCE && ip.engaged(len(buf)):
		rcce.DefaultProtocol{}.Recv(r, src, buf)
	default:
		ip.flagRecv(r, src, buf)
	}
}

// --- clear-flag family (Fig. 4b, 4c and the two bounds) -----------------

// flagSend moves a message chunk by chunk over the clear-based sent/ready
// flags. Under remote placement it streams into the receiver's MPB —
// every line write stalls for a host round trip under SchemeHostRouted
// (the lower curve of Fig. 6b), is acked by the FPGA under SchemeHWAccel
// (upper curve) and is absorbed by the host write-combining buffer under
// SchemeRemotePut — and each chunk awaits the receiver's grant. Under
// local placement (SchemeCachedGet) it puts into its own MPB; engaged, it
// then publishes: an update command tells the communication task where
// the message lies, so it can prefetch the MPB into its cache and answer
// the receiver's remote reads, and before reusing the buffer the sender
// explicitly invalidates the outdated host copy (§3.1).
//
// A direct (not engaged) transfer is the same flow without the host
// commands (§3.3: "to recover low latency for small messages we have
// defined a threshold for a core to directly transfer data"): for a line
// or two, the receiver's transparent read beats warming the host cache.
func (ip *interDeviceProtocol) flagSend(r *rcce.Rank, dest int, data []byte, engaged bool) {
	ctx := r.Ctx()
	remote := ip.desc.place == placeRemote
	holder, put := r.ID(), "put"
	if remote {
		holder, put = dest, "remoteput"
	}
	dev, tile, base := r.MPBOf(holder)
	publish := engaged && ip.desc.publish
	if publish && ip.degraded(r, dest) {
		// Graceful degradation: past the fault threshold, stop publishing
		// to the host cache — the receiver's remote gets then ride the
		// transparent path automatically (a cold cache forwards the read),
		// so only the sender changes behaviour.
		publish = false
		ip.faults.RecordRecovery("degraded-send", "vscc.cached-get", -1)
	}
	for first := true; len(data) > 0; first = false {
		n := min(len(data), rcce.ChunkBytes)
		if remote || !first {
			t0 := r.Now()
			ip.awaitReady(r, dest) // buffer grant / previous chunk drained
			r.Phase("sender", "waitgrant", t0)
		}
		if ip.desc.publish {
			// Invalidate whatever the host cache still mirrors of this MPB
			// — from the previous chunk or a previous message — before
			// overwriting it. A message that does not publish must retire
			// an earlier one's copy too, or the receiver's reads could be
			// served stale data from the cache.
			ip.unpublish(r, base)
		}
		t0 := r.Now()
		ctx.CopyPrivate(n)
		ctx.WriteMPB(dev, tile, base, data[:n])
		ctx.FlushWCB()
		r.Phase("sender", put, t0)
		if publish {
			ip.mmio(r, host.BankCommand{Cmd: host.CmdUpdate, SrcOff: base, Count: n})
			ip.published[r.ID()] = n
		}
		r.SignalSent(dest)
		data = data[n:]
	}
	t0 := r.Now()
	ip.awaitReady(r, dest) // final drain acknowledgement
	r.Phase("sender", "waitack", t0)
}

// unpublish invalidates the host copy of the sender's MPB, if one is
// published.
func (ip *interDeviceProtocol) unpublish(r *rcce.Rank, base int) {
	if prev := ip.published[r.ID()]; prev > 0 {
		ip.mmio(r, host.BankCommand{Cmd: host.CmdInvalidate, SrcOff: base, Count: prev})
		ip.published[r.ID()] = 0
	}
}

// flagRecv is flagSend's peer. Under remote placement it grants its own
// buffer to this sender before every chunk, reads it locally and
// acknowledges once at the end; under local placement it fetches every
// chunk from the sender's MPB (served by the host cache and the SIF
// stream when published) and acknowledges each.
func (ip *interDeviceProtocol) flagRecv(r *rcce.Rank, src int, buf []byte) {
	ctx := r.Ctx()
	remote := ip.desc.place == placeRemote
	holder, get := src, "remoteget"
	if remote {
		holder, get = r.ID(), "localget"
	}
	dev, tile, base := r.MPBOf(holder)
	for len(buf) > 0 {
		n := min(len(buf), rcce.ChunkBytes)
		if remote {
			r.SignalReady(src) // grant the buffer to this sender
		}
		t0 := r.Now()
		ip.awaitSent(r, src)
		r.Phase("receiver", "waitdata", t0)
		t0 = r.Now()
		ctx.InvalidateMPB()
		ctx.ReadMPB(dev, tile, base, buf[:n])
		ctx.CopyPrivate(n)
		r.Phase("receiver", get, t0)
		if !remote {
			r.SignalReady(src)
		}
		buf = buf[n:]
	}
	if remote {
		r.SignalReady(src) // all chunks drained
	}
}

// mmio posts one fused register-bank write to the host.
func (ip *interDeviceProtocol) mmio(r *rcce.Rank, cmd host.BankCommand) {
	ctx := r.Ctx()
	pl := r.Session().PlaceOf(r.ID())
	bank := host.EncodeBank(cmd)
	ctx.MMIOWrite(pl.Dev, pl.Core*host.BankBytes, bank[:])
	ctx.FlushWCB()
}

// --- counter family: local put / local get through the vDMA (Fig. 4a/5) -

// vdmaHalf is the double-buffer slot size: both MPBs split into two
// halves so the sender's put, the host copy, and the receiver's get
// pipeline — the optimization that removes the 8 kB throughput drop
// (§4.1).
var vdmaHalf = (rcce.PayloadBytes / 2) &^ (mem.LineSize - 1)

// chunksFor returns the chunk count of a message under a slot size.
func chunksFor(n, slot int) uint64 {
	return uint64((n + slot - 1) / slot)
}

// slotOf returns the offset of chunk seq's slot in an MPB payload area.
func (ip *interDeviceProtocol) slotOf(seq uint64) int {
	return int((seq - 1) % 2 * uint64(ip.slot))
}

// reached reports whether a counter byte reads seq or seq+1: every
// counter below runs at most one chunk ahead of the side waiting on it.
func reached(b byte, seq uint64) bool { return b == seqVal(seq) || b == seqVal(seq+1) }

// waitCount waits under the ladder until this rank's own counter flag of
// the given kind for peer satisfies pred.
func (ip *interDeviceProtocol) waitCount(r *rcce.Rank, site string, kind, peer int, pred func(byte) bool, rearm func()) {
	_, tile, base := r.MPBOf(r.ID())
	ip.waitLadder(r, site, peer, func(b sim.Cycles) bool {
		_, ok := r.Ctx().WaitFlagFor(tile, base+rcce.FlagByteAt(kind, peer), pred, b)
		return ok
	}, rearm)
}

// postCount writes this rank's counter flag of the given kind at peer (a
// posted flag write, fenced behind whatever data preceded it).
func (ip *interDeviceProtocol) postCount(r *rcce.Rank, peer, kind int, seq uint64) {
	dev, tile, base := r.MPBOf(peer)
	ctx := r.Ctx()
	ctx.WriteMPB(dev, tile, base+rcce.FlagByteAt(kind, r.ID()), []byte{seqVal(seq)})
	ctx.FlushWCB()
}

// putAndProgram puts chunk seq into the sender's own slot and programs
// the vDMA controller to carry it to the receiver's: one fused 32 B
// register write (address / count / control, Fig. 5). The command raises
// the sent counter at the receiver and the dmac counter at the sender.
func (ip *interDeviceProtocol) putAndProgram(r *rcce.Rank, dest int, seq uint64, chunk []byte) host.BankCommand {
	ctx := r.Ctx()
	myDev, myTile, myBase := r.MPBOf(r.ID())
	dstDev, dstTile, dstBase := r.MPBOf(dest)
	slot := ip.slotOf(seq)
	t0 := r.Now()
	ctx.CopyPrivate(len(chunk))
	ctx.WriteMPB(myDev, myTile, myBase+slot, chunk)
	ctx.FlushWCB()
	r.Phase("sender", "put", t0)
	cmd := host.BankCommand{
		Cmd:    host.CmdCopy,
		DstDev: dstDev, DstTile: dstTile, DstOff: dstBase + slot,
		SrcOff: myBase + slot, Count: len(chunk),
		Flags:     host.FlagNotifyDest | host.FlagCompletion,
		NotifyOff: dstBase + rcce.FlagByteAt(rcce.FlagSent, r.ID()), NotifyVal: seqVal(seq),
		ComplOff: myBase + rcce.FlagByteAt(rcce.FlagDMAC, dest), ComplVal: seqVal(seq),
	}
	ip.mmio(r, cmd)
	r.Phase("sender", "dma-armed", r.Now())
	return cmd
}

// drainAndAck reads chunk seq out of the receiver's own slot (local get)
// and publishes the drained count at the sender.
func (ip *interDeviceProtocol) drainAndAck(r *rcce.Rank, src int, seq uint64, chunk []byte) {
	ctx := r.Ctx()
	myDev, myTile, myBase := r.MPBOf(r.ID())
	t0 := r.Now()
	ctx.InvalidateMPB()
	ctx.ReadMPB(myDev, myTile, myBase+ip.slotOf(seq), chunk)
	ctx.CopyPrivate(len(chunk))
	r.Phase("receiver", "localget", t0)
	ip.postCount(r, src, rcce.FlagReady, seq)
}

// grantThrough posts the receiver's buffer credit while it works on chunk
// seq: one chunk ahead, but never into the next message — the receive
// slots are shared by all senders.
func (ip *interDeviceProtocol) grantThrough(r *rcce.Rank, src int, seq, lastSeq uint64) {
	ip.postCount(r, src, rcce.FlagGrant, min(seq+1, lastSeq))
}

// seqSend is the new local-access scheme: sender and receiver only touch
// their own on-chip memory while the communication task acts as a
// virtual DMA controller between the two MPBs. Flow control is
// value-encoded and per pair:
//
//   - grant[sender] at the sender carries the highest chunk the receiver
//     has granted; grants never span messages, so the shared receive
//     slots are handed to one sender at a time;
//   - ready[receiver] at the sender carries the drained count (the
//     blocking-send completion condition);
//   - dmac[dest] at the sender carries the vDMA read-completion count,
//     guarding the sender's own slot reuse.
//
// A direct (not engaged) transfer keeps the counter flow, so mixing
// direct and DMA transfers on one pair stays consistent, but the core
// writes each chunk straight into the receiver's slot and raises the
// sent counter itself instead of programming the controller.
func (ip *interDeviceProtocol) seqSend(r *rcce.Rank, dest int, data []byte, engaged bool) {
	ctx := r.Ctx()
	out := ip.counter(ip.out, r.ID(), dest)
	dstDev, dstTile, dstBase := r.MPBOf(dest)
	firstSeq := *out + 1
	if engaged && ip.degraded(r, dest) {
		// Graceful degradation: past the fault threshold every message
		// goes direct — the exact flag flow the unmodified receiver
		// expects, minus the host machinery.
		engaged = false
		ip.faults.RecordRecovery("degraded-send", "vscc.vdma", -1)
	}
	// Without the engine, a re-issued command from an earlier message
	// would overwrite the directly-written counters with stale values;
	// never re-arm then.
	var last *lastCmd
	var rearm func()
	if engaged {
		last = ip.lastCmd(r.ID(), dest)
		rearm = ip.rearmVDMA(r, last)
	}
	for len(data) > 0 {
		n := min(len(data), ip.slot)
		*out++
		seq := *out
		// Receiver grant for this chunk: the grant byte reads seq (the
		// receiver is one chunk behind) or seq+1 (it caught up).
		t0 := r.Now()
		ip.waitCount(r, "vscc.vdma.grant", rcce.FlagGrant, dest, func(b byte) bool { return reached(b, seq) }, rearm)
		r.Phase("sender", "waitgrant", t0)
		if engaged {
			if seq-firstSeq >= 2 {
				// Slot reuse: the vDMA must have finished reading chunk
				// seq-2 out of this MPB slot.
				t0 = r.Now()
				ip.waitCount(r, "vscc.vdma.dmac", rcce.FlagDMAC, dest, func(b byte) bool { return reached(b, seq-2) }, rearm)
				r.Phase("sender", "waitdma", t0)
			}
			last.cmd, last.ok = ip.putAndProgram(r, dest, seq, data[:n]), true
		} else {
			t0 = r.Now()
			ctx.CopyPrivate(n)
			ctx.WriteMPB(dstDev, dstTile, dstBase+ip.slotOf(seq), data[:n])
			ctx.FlushWCB()
			ip.postCount(r, dest, rcce.FlagSent, seq)
			r.Phase("sender", "remoteput", t0)
		}
		data = data[n:]
	}
	// Blocking semantics: the receiver drained everything.
	final := seqVal(*out)
	t0 := r.Now()
	ip.waitCount(r, "vscc.vdma.ready", rcce.FlagReady, dest, func(b byte) bool { return b == final }, rearm)
	r.Phase("sender", "waitack", t0)
}

// seqRecv is seqSend's peer; it cannot tell a direct chunk from a DMA one.
func (ip *interDeviceProtocol) seqRecv(r *rcce.Rank, src int, buf []byte) {
	in := ip.counter(ip.in, r.ID(), src)
	lastSeq := *in + chunksFor(len(buf), ip.slot)
	for len(buf) > 0 {
		n := min(len(buf), ip.slot)
		*in++
		seq := *in
		ip.grantThrough(r, src, seq, lastSeq)
		t0 := r.Now()
		ip.waitCount(r, "vscc.vdma.sent", rcce.FlagSent, src, func(b byte) bool { return reached(b, seq) }, nil)
		r.Phase("receiver", "waitdata", t0)
		ip.drainAndAck(r, src, seq, buf[:n])
		buf = buf[n:]
	}
}
