// Package ircce is a Go port of iRCCE, the RWTH Aachen non-blocking
// extension to RCCE (Clauss et al.). It contributes two things on top of
// package rcce:
//
//   - PipelinedProtocol: a blocking wire protocol that double-buffers the
//     sender's MPB so put and get operations interleave (paper Fig. 2b),
//     raising point-to-point throughput for large messages at the cost of
//     a finer synchronization granularity.
//   - Engine: non-blocking Isend/Irecv requests with cooperative progress
//     (iRCCE pushes request state machines during test/wait calls; no
//     background thread exists on the bare-metal SCC).
package ircce

import (
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/rcce"
)

// DefaultThreshold is iRCCE's static pipelining packet size (paper §2.2:
// "software pipelining with a static threshold of 4 kB").
const DefaultThreshold = 4096

// PipelinedProtocol implements rcce.Protocol with the iRCCE pipelined
// scheme. The sender's MPB payload area is split into two packet slots;
// while the receiver drains slot A the sender refills slot B. Flag bytes
// carry modulo-256 packet counters instead of binary handshakes, with a
// credit window of two packets, so no flag is ever cleared and no update
// can be lost.
type PipelinedProtocol struct {
	// Threshold is the packet size in bytes; it is clipped to half the
	// MPB payload area and aligned down to cache lines. Zero means
	// DefaultThreshold.
	Threshold int

	seq map[pipeKey]*pipeSeq
}

type pipeKey struct{ me, peer int }

// pipeSeq carries the per-direction packet counters of one (me, peer)
// pair; they run forever across messages so no reset races exist.
type pipeSeq struct {
	out uint64 // packets sent to peer
	in  uint64 // packets received from peer
}

// Name implements rcce.Protocol.
func (pp *PipelinedProtocol) Name() string { return "ircce-pipelined" }

// packetBytes returns the effective packet size.
func (pp *PipelinedProtocol) packetBytes() int {
	t := pp.Threshold
	if t == 0 {
		t = DefaultThreshold
	}
	half := rcce.PayloadBytes / 2 &^ (mem.LineSize - 1)
	if t > half {
		t = half
	}
	if t < mem.LineSize {
		t = mem.LineSize
	}
	return t &^ (mem.LineSize - 1)
}

func (pp *PipelinedProtocol) state(me, peer int) *pipeSeq {
	if pp.seq == nil {
		pp.seq = make(map[pipeKey]*pipeSeq)
	}
	k := pipeKey{me, peer}
	s, ok := pp.seq[k]
	if !ok {
		s = &pipeSeq{}
		pp.seq[k] = s
	}
	return s
}

// Send implements rcce.Protocol (pipelined local put).
func (pp *PipelinedProtocol) Send(r *rcce.Rank, dest int, data []byte) {
	pk := pp.packetBytes()
	st := pp.state(r.ID(), dest)
	myDev, myTile, myBase := r.MPBOf(r.ID())
	ctx := r.Ctx()
	readyOff := rcce.FlagByteAt(rcce.FlagReady, dest)
	for len(data) > 0 {
		n := len(data)
		if n > pk {
			n = pk
		}
		st.out++
		seq := st.out
		// Credit window of two slots: before filling the slot for packet
		// seq, packet seq-2 must be acknowledged. The ready byte can only
		// read seq-2 or seq-1 at this point.
		if seq > 2 {
			lo, hi := byte(seq-2), byte(seq-1)
			t0 := r.Now()
			ctx.WaitFlagFor(myTile, myBase+readyOff, func(b byte) bool { return b == lo || b == hi }, 0)
			r.Phase("sender", "waitcredit", t0)
		}
		slotOff := int((seq - 1) % 2 * uint64(pk))
		t0 := r.Now()
		ctx.CopyPrivate(n)
		ctx.WriteMPB(myDev, myTile, myBase+slotOff, data[:n])
		ctx.FlushWCB()
		r.Phase("sender", "put", t0)
		sink := r.Sink()
		sink.Add("ircce.packets", 1)
		sink.Observe("ircce.packet_bytes", float64(n))
		// Publish the new packet count at the receiver.
		pp.writeCounter(r, dest, rcce.FlagSent, byte(seq))
		data = data[n:]
	}
	// Blocking semantics: wait until the receiver drained everything.
	final := byte(st.out)
	t0 := r.Now()
	ctx.WaitFlagFor(myTile, myBase+readyOff, func(b byte) bool { return b == final }, 0)
	r.Phase("sender", "waitack", t0)
}

// Recv implements rcce.Protocol (pipelined remote get).
func (pp *PipelinedProtocol) Recv(r *rcce.Rank, src int, buf []byte) {
	pk := pp.packetBytes()
	st := pp.state(r.ID(), src)
	_, myTile, myBase := r.MPBOf(r.ID())
	srcDev, srcTile, srcBase := r.MPBOf(src)
	ctx := r.Ctx()
	sentOff := rcce.FlagByteAt(rcce.FlagSent, src)
	for len(buf) > 0 {
		n := len(buf)
		if n > pk {
			n = pk
		}
		st.in++
		seq := st.in
		// The sent byte reads seq (packet ready) or seq+1 (sender one
		// packet ahead inside its credit window).
		lo, hi := byte(seq), byte(seq+1)
		t0 := r.Now()
		ctx.WaitFlagFor(myTile, myBase+sentOff, func(b byte) bool { return b == lo || b == hi }, 0)
		r.Phase("receiver", "waitdata", t0)
		slotOff := int((seq - 1) % 2 * uint64(pk))
		t0 = r.Now()
		ctx.InvalidateMPB()
		ctx.ReadMPB(srcDev, srcTile, srcBase+slotOff, buf[:n])
		ctx.CopyPrivate(n)
		r.Phase("receiver", "get", t0)
		// Acknowledge the drained packet at the sender.
		pp.writeCounter(r, src, rcce.FlagReady, byte(seq))
		buf = buf[n:]
	}
}

// writeCounter publishes a packet counter byte into peer's flag array
// (kind 0 = sent, 1 = ready).
func (pp *PipelinedProtocol) writeCounter(r *rcce.Rank, peer, kind int, v byte) {
	dev, tile, base := r.MPBOf(peer)
	off := rcce.FlagByteAt(kind, r.ID())
	ctx := r.Ctx()
	ctx.WriteMPB(dev, tile, base+off, []byte{v})
	ctx.FlushWCB()
	r.Session().ReportFlagTraffic(r.ID())
}

// String describes the protocol configuration.
func (pp *PipelinedProtocol) String() string {
	return fmt.Sprintf("ircce-pipelined(packet=%dB)", pp.packetBytes())
}
