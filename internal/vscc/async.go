package vscc

// Asynchronous inter-device communication — the paper's future work
// ("For future work, we plan to extend our communication concept to
// accelerate asynchronous communication", §5). This file is the vDMA
// scheme's request kind of ircce.Engine, the one non-blocking engine: the
// sender puts a chunk, programs the controller and returns to useful work
// while the host moves the data; the engine pushes progress cooperatively
// (during Test/Wait), as on the bare-metal SCC.
//
// Requests share the per-pair counter flags with the blocking vDMA
// protocol, so blocking and asynchronous transfers may alternate on a
// pair — but must not overlap, exactly like iRCCE and blocking RCCE.

import (
	"fmt"
	"strings"

	"vscc/internal/host"
	"vscc/internal/ircce"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

// async request states.
const (
	asWaitGrant = iota // sender: wait for the receiver's buffer credit
	asWaitSlot         // sender: wait for the vDMA to release our slot
	asWaitDrain        // sender: all chunks armed; wait for final drain
	arWaitData         // receiver: wait for the chunk's notify counter
	asDone
)

var asyncStateNames = [...]string{
	asWaitGrant: "wait-grant",
	asWaitSlot:  "wait-slot",
	asWaitDrain: "wait-drain",
	arWaitData:  "wait-data",
	asDone:      "done",
}

// asyncTransfer is one outstanding non-blocking vDMA transfer.
type asyncTransfer struct {
	ip   *interDeviceProtocol
	r    *rcce.Rank
	send bool
	peer int

	rest     []byte
	total    int
	firstSeq uint64
	lastSeq  uint64
	seq      uint64 // chunk currently being worked on
	state    int

	// Newest vDMA command programmed for this request; re-issued when a
	// stalled engine suspects the programming write was lost in flight.
	cmd     host.BankCommand
	haveCmd bool
}

// NewTransfer starts a non-blocking transfer of buf with a rank on
// another device; ircce.Engine calls it for every such Isend and Irecv.
// It claims the request's chunk numbers from the pair's counter at once,
// so requests on a pair complete in order. Only the vDMA scheme has
// flags a request can poll: the clear-flag schemes are refused before
// they touch one.
func (ip *interDeviceProtocol) NewTransfer(r *rcce.Rank, send bool, peer int, buf []byte) (ircce.Transfer, error) {
	if ip.desc.flow != flowSeq {
		return nil, fmt.Errorf("vscc: async engine requires the vDMA scheme, session runs %q", ip.Name())
	}
	q := &asyncTransfer{ip: ip, r: r, send: send, peer: peer, rest: buf, total: len(buf)}
	count := ip.counter(ip.in, r.ID(), peer)
	q.state = arWaitData
	if send {
		count = ip.counter(ip.out, r.ID(), peer)
		q.state = asWaitGrant
	}
	q.firstSeq = *count + 1
	q.lastSeq = *count + chunksFor(len(buf), ip.slot)
	q.seq = q.firstSeq
	*count = q.lastSeq
	if !send {
		// Issue the first grant immediately: the sender cannot move before it.
		q.publishGrant()
	}
	return q, nil
}

// publishGrant posts the receiver's buffer credit for the chunk q.seq.
func (q *asyncTransfer) publishGrant() {
	q.ip.grantThrough(q.r, q.peer, q.seq, q.lastSeq)
}

// Done implements ircce.Transfer.
func (q *asyncTransfer) Done() bool { return q.state == asDone }

// Ready peeks whether the request's current wait condition holds.
func (q *asyncTransfer) Ready() bool {
	r := q.r
	switch q.state {
	case asWaitGrant:
		return reached(r.PeekFlagByte(rcce.FlagGrant, q.peer), q.seq)
	case asWaitSlot:
		return reached(r.PeekFlagByte(rcce.FlagDMAC, q.peer), q.seq-2)
	case asWaitDrain:
		return r.PeekFlagByte(rcce.FlagReady, q.peer) == seqVal(q.lastSeq)
	case arWaitData:
		return reached(r.PeekFlagByte(rcce.FlagSent, q.peer), q.seq)
	}
	return false
}

// Step performs one state transition (the flag condition holds), with
// the chunk moves of the blocking protocol: putAndProgram on the send
// side, drainAndAck on the receive side.
func (q *asyncTransfer) Step() {
	r := q.r
	ctx := r.Ctx()
	if q.send && q.state == asWaitGrant && q.seq-q.firstSeq >= 2 {
		q.state = asWaitSlot
		return
	}
	ctx.Delay(ctx.Params().FlagPollCycles)
	if q.state == asWaitDrain {
		r.Session().ReportTraffic(r.ID(), q.peer, q.total)
		q.state = asDone
		return
	}
	n := min(len(q.rest), q.ip.slot)
	chunk := q.rest[:n]
	q.rest = q.rest[n:]
	if q.send {
		q.cmd, q.haveCmd = q.ip.putAndProgram(r, q.peer, q.seq, chunk), true
	} else {
		q.ip.drainAndAck(r, q.peer, q.seq, chunk)
	}
	switch {
	case len(q.rest) == 0 && q.send:
		q.state = asWaitDrain
	case len(q.rest) == 0:
		q.state = asDone
	case q.send:
		q.seq++
		q.state = asWaitGrant
	default:
		q.seq++
		q.publishGrant() // the credit for the next chunk
	}
}

// AwaitChange is the sleep of a rank whose engine holds stalled vDMA
// requests (stalled, the cross-device queue heads in the engine's scan
// order). Fault-free it waits indefinitely for a local MPB change
// (budget 0). Under fault injection every sleep carries a cycle budget,
// doubled per consecutive expiry (stalls counts them; the engine zeroes
// it on progress): when it expires, the blocked senders' vDMA commands
// are re-armed and outstanding grants republished (both idempotent — the
// same bytes and flag values land again, and counters never move
// backward). Past the retry bound the rank fails deterministically with
// a snapshot of the stalled heads.
func (ip *interDeviceProtocol) AwaitChange(r *rcce.Rank, stalled []ircce.Transfer, stalls int) int {
	budget := sim.Cycles(0)
	if ip.faults != nil {
		budget = ip.rec.WaitBudget << stalls
	}
	if r.WaitAnyLocalChangeFor(budget) {
		return stalls
	}
	stalls++
	heads := make([]*asyncTransfer, len(stalled))
	for i, t := range stalled {
		heads[i] = t.(*asyncTransfer)
	}
	// A stall against a crashed peer device is a device loss, not a
	// lost flag: park until the rejoin (devretry=1) or fail with the
	// deterministic sentinel.
	if lost := ip.lostPeerDev(r, heads); lost >= 0 {
		if !ip.rec.DeviceRetry {
			panic(fmt.Errorf("vscc: async engine rank %d: device %d lost at cycle %d: %w",
				r.ID(), lost, r.Now(), rcce.ErrDeviceLost))
		}
		ip.faults.RecordRecovery("device-wait", "vscc.async", lost)
		ip.mem.AwaitUp(r.Ctx().Proc, lost)
		ip.rearmStalled(r, heads)
		return 0
	}
	if stalls > ip.rec.MaxWaitRetries {
		panic(fmt.Sprintf("vscc: async engine rank %d lost completion after %d retries at cycle %d: %s",
			r.ID(), stalls-1, r.Now(), describeStalled(heads)))
	}
	dev, _, _ := r.MPBOf(r.ID())
	ip.faults.RecordRecovery("async-retry", "vscc.async", dev)
	ip.rearmStalled(r, heads)
	return stalls
}

// lostPeerDev returns the lowest currently-lost device among the
// stalled heads' peers, or -1.
func (ip *interDeviceProtocol) lostPeerDev(r *rcce.Rank, heads []*asyncTransfer) int {
	if ip.mem == nil {
		return -1
	}
	lost := -1
	for _, q := range heads {
		if d := r.Session().PlaceOf(q.peer).Dev; ip.mem.Lost(d) && (lost < 0 || d < lost) {
			lost = d
		}
	}
	return lost
}

// rearmStalled re-issues the newest vDMA command of every blocked send
// head and republishes every blocked receiver's outstanding grant, so a
// lost programming write or a lost credit flag cannot wedge the engine.
// Degraded pairs are skipped: their counters are written directly and a
// stale re-issued command could overwrite newer values.
func (ip *interDeviceProtocol) rearmStalled(r *rcce.Rank, heads []*asyncTransfer) {
	dev, _, _ := r.MPBOf(r.ID())
	for _, q := range heads {
		switch {
		case !q.send:
			q.publishGrant()
		case q.haveCmd && !ip.degraded(r, q.peer):
			ip.faults.RecordRecovery("vdma-rearm", "vscc.async", dev)
			ip.mmio(r, q.cmd)
		}
	}
}

// describeStalled renders the blocked heads deterministically for the
// lost-completion failure.
func describeStalled(heads []*asyncTransfer) string {
	var parts []string
	for _, q := range heads {
		dir := "recv<-"
		if q.send {
			dir = "send->"
		}
		parts = append(parts, fmt.Sprintf("%s%d %s seq %d of %d..%d", dir, q.peer, asyncStateNames[q.state], q.seq, q.firstSeq, q.lastSeq))
	}
	return strings.Join(parts, "; ")
}
