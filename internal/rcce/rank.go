package rcce

import (
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

// Flag-area layout within each rank's 8 KB MPB half, from the top:
//
//	[PayloadBytes                , +MaxRanks) sent flags, indexed by sender
//	[PayloadBytes +   MaxRanks   , +MaxRanks) ready flags, indexed by receiver
//	[PayloadBytes + 2*MaxRanks   , +MaxRanks) barrier flags (slot 0 = release)
//	[PayloadBytes + 3*MaxRanks   , +MaxRanks) grant flags (vSCC buffer credits)
//	[PayloadBytes + 4*MaxRanks   , +MaxRanks) vDMA completion flags
//	[PayloadBytes + 5*MaxRanks   , +32)       reserved scratch line
const (
	sentFlagBase    = PayloadBytes
	readyFlagBase   = PayloadBytes + MaxRanks
	barrierFlagBase = PayloadBytes + 2*MaxRanks
	grantFlagBase   = PayloadBytes + 3*MaxRanks
	dmacFlagBase    = PayloadBytes + 4*MaxRanks
)

// Rank is one RCCE process: the handle a rank's program uses for all
// communication. It is bound to the simulated core process and must not
// be shared across processes.
type Rank struct {
	s   *Session
	id  int
	ctx *scc.Ctx

	gen    byte // barrier generation
	haveCB bool

	// MPB allocator state (top-down bump, line granular).
	allocLow int // lowest allocated offset
}

func (r *Rank) initMPB() {
	r.allocLow = PayloadBytes
	r.gen = 0
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// N returns the session size (RCCE_num_ues).
func (r *Rank) N() int { return r.s.NumRanks() }

// Session returns the owning session.
func (r *Rank) Session() *Session { return r.s }

// Ctx exposes the underlying core context for advanced use (compute
// accounting, raw MPB access).
func (r *Rank) Ctx() *scc.Ctx { return r.ctx }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Cycles { return r.ctx.Now() }

// ComputeFlops charges floating-point work to the rank's core.
func (r *Rank) ComputeFlops(n float64) { r.ctx.ComputeFlops(n) }

// place returns the placement of any rank.
func (r *Rank) place(rank int) Place { return r.s.places[rank] }

// mpb returns the (dev, tile, base) triple of a rank's MPB half.
func (r *Rank) mpb(rank int) (dev, tile, base int) {
	pl := r.s.places[rank]
	return pl.Dev, scc.CoreTile(pl.Core), scc.CoreLMBOffset(pl.Core)
}

func (r *Rank) checkPeer(rank int) {
	if rank < 0 || rank >= r.s.NumRanks() {
		panic(fmt.Sprintf("rcce: rank %d out of range [0,%d)", rank, r.s.NumRanks()))
	}
}

// --- gory one-sided interface -------------------------------------------

// Put copies data from private memory into the MPB of rank dest at
// payload offset off (RCCE_put). The store is flushed before returning.
func (r *Rank) Put(dest, off int, data []byte) {
	r.checkPeer(dest)
	if off < 0 || off+len(data) > PayloadBytes {
		panic(fmt.Sprintf("rcce: put [%d,%d) outside payload area", off, off+len(data)))
	}
	dev, tile, base := r.mpb(dest)
	r.ctx.CopyPrivate(len(data))
	r.ctx.WriteMPB(dev, tile, base+off, data)
	r.ctx.FlushWCB()
}

// Get copies len(buf) bytes from the MPB of rank src at payload offset
// off into private memory (RCCE_get), invalidating stale L1 state first.
func (r *Rank) Get(src, off int, buf []byte) {
	r.checkPeer(src)
	if off < 0 || off+len(buf) > PayloadBytes {
		panic(fmt.Sprintf("rcce: get [%d,%d) outside payload area", off, off+len(buf)))
	}
	dev, tile, base := r.mpb(src)
	r.ctx.InvalidateMPB()
	r.ctx.ReadMPB(dev, tile, base+off, buf)
	r.ctx.CopyPrivate(len(buf))
}

// --- flags ----------------------------------------------------------------

// setSent raises this rank's sent flag at rank dest.
func (r *Rank) setSent(dest int, v byte) { r.writeFlag(dest, sentFlagBase+r.id, v) }

// setReady raises this rank's ready flag at rank dest (the ack path).
func (r *Rank) setReady(dest int, v byte) { r.writeFlag(dest, readyFlagBase+r.id, v) }

// waitSent spins on the local sent flag for peer src until it is raised,
// then clears it (the waiter owns the clear).
func (r *Rank) waitSent(src int) { r.waitClearFlag(sentFlagBase + src) }

// waitReady spins on the local ready flag for peer dest until raised,
// then clears it.
func (r *Rank) waitReady(dest int) { r.waitClearFlag(readyFlagBase + dest) }

// writeFlag writes one flag byte in rank dest's MPB and flushes.
func (r *Rank) writeFlag(dest, off int, v byte) {
	dev, tile, base := r.mpb(dest)
	r.ctx.WriteMPB(dev, tile, base+off, []byte{v})
	r.ctx.FlushWCB()
	r.s.reportFlagWrite(r.place(r.id).Dev)
}

// waitClearFlag spins until the local flag at off is non-zero, then
// clears it (the waiter owns the clear).
func (r *Rank) waitClearFlag(off int) { r.waitClearFlagFor(off, 0) }

// waitClearFlagFor is waitClearFlag with a cycle budget (0 = forever),
// reporting whether the flag arrived — and was cleared — in time.
func (r *Rank) waitClearFlagFor(off int, budget sim.Cycles) bool {
	_, tile, base := r.mpb(r.id)
	if _, ok := r.ctx.WaitFlagFor(tile, base+off, func(b byte) bool { return b != 0 }, budget); !ok {
		return false
	}
	r.ctx.WriteMPB(r.place(r.id).Dev, tile, base+off, []byte{0})
	r.ctx.FlushWCB()
	r.s.reportFlagWrite(r.place(r.id).Dev)
	return true
}

// --- MPB allocator ---------------------------------------------------------

// mallocMPB allocates size bytes (rounded to 32 B lines) of this rank's
// MPB payload area, top-down (RCCE_malloc). Send/Recv chunking does not
// consult it, and no program allocates yet.
func (r *Rank) mallocMPB(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("rcce: malloc of %d bytes", size)
	}
	size = (size + mem.LineSize - 1) &^ (mem.LineSize - 1)
	if r.allocLow-size < 0 {
		return 0, fmt.Errorf("rcce: MPB exhausted: %d bytes requested, %d free", size, r.allocLow)
	}
	r.allocLow -= size
	return r.allocLow, nil
}

// --- two-sided interface -----------------------------------------------

// Send transmits data to rank dest, blocking until the receiver has
// drained the message (RCCE_send semantics). The wire protocol is the
// session's Protocol.
func (r *Rank) Send(dest int, data []byte) error {
	r.checkPeer(dest)
	if dest == r.id {
		return fmt.Errorf("rcce: rank %d sending to itself", r.id)
	}
	r.s.protocol.Send(r, dest, data)
	r.s.reportTraffic(r.id, dest, len(data))
	return nil
}

// Recv receives exactly len(buf) bytes from rank src, blocking until the
// message arrived (RCCE_recv semantics).
func (r *Rank) Recv(src int, buf []byte) error {
	r.checkPeer(src)
	if src == r.id {
		return fmt.Errorf("rcce: rank %d receiving from itself", r.id)
	}
	r.s.protocol.Recv(r, src, buf)
	return nil
}
