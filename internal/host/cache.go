package host

import (
	"fmt"
	"hash/crc32"
	"math/bits"

	"vscc/internal/mem"
	"vscc/internal/sim"
)

// lineKey identifies one 32-byte MPB line globally (same encoding idea as
// the device caches, but private to the host task).
func lineKey(dev, tile, off int) uint64 {
	return uint64(dev)<<40 | uint64(tile)<<20 | uint64(off/mem.LineSize)
}

// cacheEntry is the host-side software copy of one cached region. Lines
// become valid as prefetch bursts arrive; the owner's explicit
// invalidate command drops them — the relaxed-consistency contract of
// §3.1 ("the sender that writes to a local MPB explicitly invalidates
// the outdated part of the host copy"). data and valid are allocated by
// the first prefetch; before it every line reads invalid.
type cacheEntry struct {
	rg    *Region
	data  []byte
	valid []bool // per line
	// hotEnd is the exclusive end (relative to rg.Off) of the range the
	// owner announced with update commands; streams run up to it.
	hotEnd int
	// pending counts in-flight prefetch bursts.
	pending int
	cond    *sim.Cond

	// track enables per-line checksums (sums), kept only when fault
	// injection is armed: a line whose stored bytes no longer match its
	// checksum was corrupted in host memory and must not be served.
	track bool
	sums  []uint32

	// acct attributes this entry's resident lines to a tenant's cache
	// partition (qos.go); nil — the default — disables partitioning.
	// stamps records each line's validation sequence so a lazily
	// processed eviction ref never drops a newer incarnation.
	acct   *tenantQoS
	stamps []uint64
}

func newCacheEntry(k *sim.Kernel, rg *Region) *cacheEntry {
	return &cacheEntry{
		rg:   rg,
		cond: sim.NewCond(k, fmt.Sprintf("hostcache.d%d.t%d", rg.Dev, rg.Tile)),
	}
}

// lineValid reports whether the line at absolute tile offset off is
// valid.
func (e *cacheEntry) lineValid(off int) bool {
	return e.valid != nil && e.valid[(off-e.rg.Off)/mem.LineSize]
}

// markValid validates the lines covering [off, off+n) (absolute),
// recomputing their checksums when tracking is on.
func (e *cacheEntry) markValid(off, n int) {
	for o := off; o < off+n; o += mem.LineSize {
		i := (o - e.rg.Off) / mem.LineSize
		if !e.valid[i] {
			e.valid[i] = true
			if e.acct != nil {
				e.acct.noteValid(e, i)
			}
		}
		if e.track {
			if e.sums == nil {
				e.sums = make([]uint32, len(e.valid))
			}
			rel := i * mem.LineSize
			e.sums[i] = crc32.ChecksumIEEE(e.data[rel : rel+mem.LineSize])
		}
	}
}

// lineClean reports whether the line at absolute offset off still
// matches its checksum. Always true when tracking is off.
func (e *cacheEntry) lineClean(off int) bool {
	if !e.track || e.sums == nil {
		return true
	}
	i := (off - e.rg.Off) / mem.LineSize
	rel := i * mem.LineSize
	return e.sums[i] == crc32.ChecksumIEEE(e.data[rel:rel+mem.LineSize])
}

// invalidate drops lines overlapping [off, off+n) (absolute) and clips
// the hot range.
func (e *cacheEntry) invalidate(off, n int) {
	first := (off - e.rg.Off) / mem.LineSize
	last := (off + n - 1 - e.rg.Off) / mem.LineSize
	for i := first; i <= last && i < len(e.valid); i++ {
		if i >= 0 {
			if e.valid[i] && e.acct != nil {
				e.acct.noteInvalid()
			}
			e.valid[i] = false
		}
	}
	if rel := off - e.rg.Off; rel < e.hotEnd {
		e.hotEnd = rel
	}
	e.cond.Broadcast()
}

// sifBuffer models the device-side response buffer in the SIF FPGA that
// the host streams prefetched lines into. A read that hits here is
// served at on-chip cost — the mechanism that turns the latency-bound
// remote-get path into a bandwidth-bound one. FIFO eviction keeps it
// bounded; an evicted line simply falls back to the slow path.
//
// Lines live in up to capLines slots, grown on first use. Slot 0 heads
// a ring of the resident slots, oldest first, so a take from the middle
// unlinks one slot; a re-inserted line keeps its slot and its place.
type sifBuffer struct {
	index    map[uint64]int32
	slots    []sifSlot
	free     int32 // a list of free slots through next; 0 when empty
	capLines int
	cond     *sim.Cond

	// gens counts invalidations per (dev, tile); genAll counts full
	// resets. A streamed line captures genOf when it is posted; if an
	// invalidate (or crash reset) lands while the line is still in
	// flight, the arrival is discarded — otherwise a delayed line from
	// before the owner's invalidate would reappear in the buffer and
	// serve stale data.
	gens   map[uint32]uint64
	genAll uint64

	evictions uint64
}

type sifSlot struct {
	key        uint64
	prev, next int32
	data       [mem.LineSize]byte
}

func newSIFBuffer(k *sim.Kernel, dev, capLines int) *sifBuffer {
	return &sifBuffer{
		index:    make(map[uint64]int32),
		slots:    make([]sifSlot, 1),
		capLines: capLines,
		cond:     sim.NewCond(k, fmt.Sprintf("sifbuf.d%d", dev)),
		gens:     make(map[uint32]uint64),
	}
}

// genOf returns the current insert generation for lines of (dev, tile).
func (b *sifBuffer) genOf(dev, tile int) uint64 {
	return b.genAll + b.gens[uint32(dev)<<16|uint32(tile)]
}

// insert adds a line copy, evicting the oldest when full, and wakes
// waiting readers.
func (b *sifBuffer) insert(key uint64, data []byte) {
	s, ok := b.index[key]
	if !ok {
		if len(b.index) >= b.capLines {
			b.remove(b.slots[0].next)
			b.evictions++
		}
		if s = b.free; s != 0 {
			b.free = b.slots[s].next
		} else {
			s = int32(len(b.slots))
			b.slots = append(b.slots, sifSlot{})
		}
		last := b.slots[0].prev
		b.slots[s] = sifSlot{key: key, prev: last}
		b.slots[last].next, b.slots[0].prev = s, s
		b.index[key] = s
	}
	copy(b.slots[s].data[:], data)
	b.cond.Broadcast()
}

// remove unlinks resident slot s and frees it.
func (b *sifBuffer) remove(s int32) {
	sl := &b.slots[s]
	b.slots[sl.prev].next, b.slots[sl.next].prev = sl.next, sl.prev
	delete(b.index, sl.key)
	sl.next, b.free = b.free, s
}

// take removes a line, copying it into buf.
func (b *sifBuffer) take(key uint64, buf []byte) bool {
	s, ok := b.index[key]
	if ok {
		copy(buf, b.slots[s].data[:])
		b.remove(s)
	}
	return ok
}

// insertIfFresh adds a line only if no invalidation of its region
// happened since gen was captured; a stale in-flight line is dropped on
// the floor (its reader falls back to the slow path).
func (b *sifBuffer) insertIfFresh(gen uint64, dev, tile int, key uint64, data []byte) bool {
	if gen != b.genOf(dev, tile) {
		b.cond.Broadcast() // readers parked on this line must re-check
		return false
	}
	b.insert(key, data)
	return true
}

// reset drops every buffered line — the crash-restart path: the SIF
// response buffer is volatile host-task state.
func (b *sifBuffer) reset() {
	clear(b.index)
	b.slots, b.free = b.slots[:1], 0
	b.slots[0] = sifSlot{}
	b.genAll++
	b.cond.Broadcast()
}

// invalidateRange drops buffered lines of (dev, tile, [off, off+n)).
func (b *sifBuffer) invalidateRange(dev, tile, off, n int) {
	b.gens[uint32(dev)<<16|uint32(tile)]++
	for o := off &^ (mem.LineSize - 1); o < off+n; o += mem.LineSize {
		if s, ok := b.index[lineKey(dev, tile, o)]; ok {
			b.remove(s)
		}
	}
	b.cond.Broadcast()
}

// stream is one active host->device line streamer feeding a reader's SIF
// buffer from the software cache.
type stream struct {
	readerDev int
	rg        *Region
	// nextOff is the next absolute tile offset to push; the stream runs
	// while nextOff < rg.Off + entry.hotEnd and lines are valid.
	nextOff int
	active  bool
}

type streamKey struct {
	readerDev int
	rg        *Region
}

// hostWCB is the communication task's write-combining buffer for one
// region: remote writes are absorbed here and flushed to the device in
// bursts (Fig. 4c). Each line keeps a mask of its dirty bytes; buf and
// the masks are allocated by the first absorb.
type hostWCB struct {
	rg         *Region
	buf        []byte
	masks      []uint32
	dirtyBytes int
}

func newHostWCB(rg *Region) *hostWCB { return &hostWCB{rg: rg} }

// absorb merges a masked line write at absolute, line-aligned tile
// offset off.
func (w *hostWCB) absorb(off int, data []byte, mask uint32) {
	if w.buf == nil {
		w.buf = make([]byte, w.rg.Len)
		w.masks = make([]uint32, w.rg.Len/mem.LineSize)
	}
	mask &= 1<<len(data) - 1 // all ones from 32 bytes on
	base := off - w.rg.Off
	line := base / mem.LineSize
	for lo, hi := mem.NextRun(mask, 0, mem.LineSize); lo < hi; lo, hi = mem.NextRun(mask, hi, mem.LineSize) {
		copy(w.buf[base+lo:base+hi], data[lo:hi])
	}
	w.dirtyBytes += bits.OnesCount32(mask &^ w.masks[line])
	w.masks[line] |= mask
}

// takeSpans calls emit with every maximal run of dirty bytes, in offset
// order — a run ending at a line's last byte continues into the next
// line's first — as its absolute tile offset and its bytes, which alias
// the buffer until the next absorb. It leaves the buffer clean.
func (w *hostWCB) takeSpans(emit func(off int, data []byte)) {
	start, end := 0, 0
	for line, m := range w.masks {
		base := line * mem.LineSize
		for lo, hi := mem.NextRun(m, 0, mem.LineSize); lo < hi; lo, hi = mem.NextRun(m, hi, mem.LineSize) {
			if base+lo != end {
				if end > start {
					emit(w.rg.Off+start, w.buf[start:end])
				}
				start = base + lo
			}
			end = base + hi
		}
		w.masks[line] = 0
	}
	if end > start {
		emit(w.rg.Off+start, w.buf[start:end])
	}
	w.dirtyBytes = 0
}
