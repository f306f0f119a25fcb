package mem

import "math/bits"

// WCB models the SCC's write-combine buffer: a single 32-byte line buffer
// between a core and the mesh that merges consecutive stores to the same
// line into one mesh transaction. It drains when the core writes a
// different line or flushes explicitly. The paper exploits this to fuse
// the three vDMA control registers (address, count, control), allocated
// contiguously with 32 B alignment, into a single remote write.
type WCB struct {
	valid bool
	key   uint64
	buf   [LineSize]byte
	mask  uint32 // bit i set = byte i written
	// out is the last drained line, handed out by pointer.
	out Pending
}

// Pending describes a drained WCB line to be written to memory.
type Pending struct {
	Key  uint64
	Data [LineSize]byte
	Mask uint32 // which bytes are valid
}

// NextRun returns the first run [lo, hi) of set bits of a line's byte
// mask at or after bit from and below limit; lo == hi when none is left.
// Whoever lands a masked line walks it run by run, in ascending order:
//
//	for lo, hi := NextRun(mask, 0, n); lo < hi; lo, hi = NextRun(mask, hi, n)
func NextRun(mask uint32, from, limit int) (lo, hi int) {
	if from >= limit {
		return from, from
	}
	if limit < 32 {
		mask &= 1<<limit - 1
	}
	rest := mask >> from // 0 once from passes the top bit
	if rest == 0 {
		return limit, limit
	}
	lo = from + bits.TrailingZeros32(rest)
	// The run is the trailing ones of mask >> lo: the shift brings in
	// clear bits and the bits from limit up are clear, so it ends by
	// bit 32 and by limit.
	return lo, lo + bits.TrailingZeros32(^(mask >> lo))
}

// Write merges a store of data at byte offset off into the line keyed by
// key. If the WCB currently holds a different line, that line drains and
// is returned; otherwise drained is nil. len(data) must fit in the line.
// A drained line belongs to the WCB: it stays valid until the next Write
// or Flush.
func (w *WCB) Write(key uint64, off int, data []byte) (drained *Pending) {
	if off < 0 || off+len(data) > LineSize {
		panic("mem: WCB write outside line")
	}
	if w.valid && w.key != key {
		drained = w.take()
	}
	if !w.valid {
		w.valid = true
		w.key = key
		w.mask = 0
	}
	copy(w.buf[off:], data)
	// A 32-byte store shifts the 1 out: 0 - 1 is the full mask.
	w.mask |= (1<<len(data) - 1) << off
	return drained
}

// Flush drains the buffered line, if any, valid until the next Write or
// Flush.
func (w *WCB) Flush() *Pending {
	if !w.valid {
		return nil
	}
	return w.take()
}

// PendingKey returns the key of the buffered line, if any — consumed by
// the scc consistency checker to flag reads overlapping combined stores.
func (w *WCB) PendingKey() (key uint64, ok bool) { return w.key, w.valid }

func (w *WCB) take() *Pending {
	w.out = Pending{Key: w.key, Data: w.buf, Mask: w.mask}
	w.valid = false
	return &w.out
}
