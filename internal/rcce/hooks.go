package rcce

import (
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// This file exports the low-level handshake primitives that alternative
// wire protocols build on: the pipelined protocol of package ircce and
// the host-accelerated inter-device schemes of package vscc. Application
// code should use Send/Recv and the gory interface instead.

// MPBOf returns the (device, tile, base-offset) triple locating a rank's
// MPB half — the address a protocol reads from or writes to.
func (r *Rank) MPBOf(rank int) (dev, tile, base int) {
	r.checkPeer(rank)
	return r.mpb(rank)
}

// SignalSent raises this rank's sent flag at rank dest — "data is in my
// buffer".
func (r *Rank) SignalSent(dest int) { r.setSent(dest, 1) }

// SignalReady raises this rank's ready flag at rank dest — "your buffer
// has been drained".
func (r *Rank) SignalReady(dest int) { r.setReady(dest, 1) }

// AwaitSentFor blocks until rank src has signalled data, then clears the
// flag (the waiter owns the clear). It gives up after budget cycles (0 =
// wait forever), reporting whether the flag arrived in time; on timeout
// the flag is left intact, so the wait can be retried.
func (r *Rank) AwaitSentFor(src int, budget sim.Cycles) bool {
	return r.waitClearFlagFor(sentFlagBase+src, budget)
}

// AwaitReadyFor blocks until rank dest has acknowledged a drain, then
// clears the flag, with a cycle budget as AwaitSentFor.
func (r *Rank) AwaitReadyFor(dest int, budget sim.Cycles) bool {
	return r.waitClearFlagFor(readyFlagBase+dest, budget)
}

// PeekSent reports, without yielding simulated time, whether rank src's
// sent flag is raised here. For non-blocking progress engines.
func (r *Rank) PeekSent(src int) bool {
	_, tile, base := r.mpb(r.id)
	return r.ctx.PeekLMB(tile, base+sentFlagBase+src) != 0
}

// PeekReady reports whether rank dest's ready flag is raised here.
func (r *Rank) PeekReady(dest int) bool {
	_, tile, base := r.mpb(r.id)
	return r.ctx.PeekLMB(tile, base+readyFlagBase+dest) != 0
}

// ClearSent consumes a raised sent flag (charging the local flag write).
func (r *Rank) ClearSent(src int) {
	dev, tile, base := r.mpb(r.id)
	r.ctx.WriteMPB(dev, tile, base+sentFlagBase+src, []byte{0})
	r.ctx.FlushWCB()
}

// ClearReady consumes a raised ready flag.
func (r *Rank) ClearReady(dest int) {
	dev, tile, base := r.mpb(r.id)
	r.ctx.WriteMPB(dev, tile, base+readyFlagBase+dest, []byte{0})
	r.ctx.FlushWCB()
}

// WaitAnyLocalChangeFor blocks until any store lands in this rank's tile
// — the wake condition for every flag this rank could be waiting on,
// since RCCE spins only on local flags — or budget cycles pass (0 =
// forever), reporting false when the budget expires with no store.
func (r *Rank) WaitAnyLocalChangeFor(budget sim.Cycles) bool {
	_, tile, _ := r.mpb(r.id)
	return r.ctx.WaitLMBChangeFor(tile, budget)
}

// Flag-array kinds for FlagByteAt.
const (
	FlagSent = iota
	FlagReady
	FlagGrant
	FlagDMAC
)

// FlagByteAt exposes raw flag-byte addressing for protocol extensions
// (sent, ready, grant and vDMA-completion arrays). It returns the offset
// within the rank's MPB half.
func FlagByteAt(kind, peer int) int {
	switch kind {
	case FlagSent:
		return sentFlagBase + peer
	case FlagReady:
		return readyFlagBase + peer
	case FlagGrant:
		return grantFlagBase + peer
	case FlagDMAC:
		return dmacFlagBase + peer
	}
	panic("rcce: unknown flag kind")
}

// PeekFlagByte reads a local flag byte's current value without yielding
// simulated time — the gating primitive for non-blocking progress
// engines over the value-encoded (counter) flag protocols.
func (r *Rank) PeekFlagByte(kind, peer int) byte {
	_, tile, base := r.mpb(r.id)
	return r.ctx.PeekLMB(tile, base+FlagByteAt(kind, peer))
}

// ReportTraffic lets protocol extensions attribute delivered messages to
// the session's traffic observer (used when a scheme bypasses Send).
func (s *Session) ReportTraffic(src, dest, bytes int) { s.reportTraffic(src, dest, bytes) }

// ReportFlagTraffic lets protocol extensions attribute a flag-byte store
// by rank src to the observability sink's data-vs-flag traffic split
// (used when a protocol writes flag bytes through the gory interface
// directly).
func (s *Session) ReportFlagTraffic(src int) { s.reportFlagWrite(s.places[src].Dev) }

// Sink returns the sink rank r records into: its device's sink when
// per-device sinks are attached (the PDES configuration), the session
// sink otherwise. Protocol extensions must prefer this over
// Session.Sink so their counters stay kernel-local.
func (r *Rank) Sink() *trace.Sink { return r.s.sinkFor(r.place(r.id).Dev) }
