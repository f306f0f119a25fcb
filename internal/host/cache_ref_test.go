package host

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"vscc/internal/mem"
	"vscc/internal/sim"
)

// refWCB is the host write-combining buffer as it was before the
// per-line byte masks: one dirty flag per byte, and a flush that copies
// every maximal dirty run out of the buffer. TestHostWCBMatchesReferenceModel
// checks hostWCB against it.
type refWCB struct {
	off        int
	buf        []byte
	dirty      []bool
	dirtyBytes int
}

func newRefWCB(rg *Region) *refWCB {
	return &refWCB{off: rg.Off, buf: make([]byte, rg.Len), dirty: make([]bool, rg.Len)}
}

func (w *refWCB) absorb(off int, data []byte, mask uint32) {
	base := off - w.off
	for i := 0; i < len(data) && i < mem.LineSize; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !w.dirty[base+i] {
			w.dirty[base+i] = true
			w.dirtyBytes++
		}
		w.buf[base+i] = data[i]
	}
}

type refSpan struct {
	off  int
	data []byte
}

func (w *refWCB) takeDirtySpans() []refSpan {
	var spans []refSpan
	i := 0
	for i < len(w.dirty) {
		if !w.dirty[i] {
			i++
			continue
		}
		j := i
		for j < len(w.dirty) && w.dirty[j] {
			w.dirty[j] = false
			j++
		}
		data := make([]byte, j-i)
		copy(data, w.buf[i:j])
		spans = append(spans, refSpan{off: w.off + i, data: data})
		i = j
	}
	w.dirtyBytes = 0
	return spans
}

// refSIFBuffer is the SIF response buffer as it was before its fixed
// slots: a map of line copies plus a FIFO slice of keys that take and
// invalidateRange memmove. TestSIFBufferMatchesReferenceModel checks
// sifBuffer against it.
type refSIFBuffer struct {
	lines     map[uint64][]byte
	order     []uint64
	capLines  int
	evictions uint64
}

func newRefSIFBuffer(capLines int) *refSIFBuffer {
	return &refSIFBuffer{lines: make(map[uint64][]byte), capLines: capLines}
}

func (b *refSIFBuffer) insert(key uint64, data []byte) {
	if _, ok := b.lines[key]; !ok {
		if len(b.order) >= b.capLines {
			oldest := b.order[0]
			b.order = b.order[1:]
			delete(b.lines, oldest)
			b.evictions++
		}
		b.order = append(b.order, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.lines[key] = cp
}

func (b *refSIFBuffer) take(key uint64) ([]byte, bool) {
	data, ok := b.lines[key]
	if !ok {
		return nil, false
	}
	b.drop(key)
	return data, true
}

func (b *refSIFBuffer) drop(key uint64) {
	delete(b.lines, key)
	for i, k := range b.order {
		if k == key {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

func (b *refSIFBuffer) has(key uint64) bool {
	_, ok := b.lines[key]
	return ok
}

func (b *refSIFBuffer) reset() {
	clear(b.lines)
	b.order = b.order[:0]
}

func (b *refSIFBuffer) invalidateRange(dev, tile, off, n int) {
	for o := off &^ (mem.LineSize - 1); o < off+n; o += mem.LineSize {
		if key := lineKey(dev, tile, o); b.has(key) {
			b.drop(key)
		}
	}
}

// takeSpans collects a hostWCB flush's spans as copies.
func takeSpans(w *hostWCB) []refSpan {
	var spans []refSpan
	w.takeSpans(func(off int, data []byte) {
		spans = append(spans, refSpan{off: off, data: append([]byte(nil), data...)})
	})
	return spans
}

// TestHostWCBMatchesReferenceModel runs seeded scripts of masked line
// writes against hostWCB and the per-byte reference: at every flush
// (each time the dirty bytes reach the threshold, plus forced flushes)
// both emit the same spans — offsets, lengths, order and bytes — and
// they agree on the dirty-byte count after every write.
func TestHostWCBMatchesReferenceModel(t *testing.T) {
	masks := []func(r *rand.Rand) uint32{
		func(r *rand.Rand) uint32 { return r.Uint32() },
		func(r *rand.Rand) uint32 { return 0xFFFFFFFF },
		func(r *rand.Rand) uint32 { return 0xFFFFFFFF << r.Intn(32) }, // a run to byte 31
		func(r *rand.Rand) uint32 { return 0xFFFFFFFF >> r.Intn(32) }, // a run from byte 0
		func(r *rand.Rand) uint32 { return 1 << r.Intn(32) },          // one byte
		func(r *rand.Rand) uint32 { return uint32(r.Intn(3)) << 30 },  // the top bytes or none
	}
	crossing := 0
	for _, threshold := range []int{64, 256, 1024, 4096} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rg := &Region{Off: mem.LineSize * rng.Intn(8), Len: mem.LineSize * (1 + rng.Intn(160))}
			got, want := newHostWCB(rg), newRefWCB(rg)
			flush := func(op int) {
				var spans []refSpan
				if got.dirtyBytes > 0 {
					spans = takeSpans(got)
				}
				ref := want.takeDirtySpans()
				if len(spans) != len(ref) {
					t.Fatalf("threshold %d seed %d op %d: %d spans, reference %d", threshold, seed, op, len(spans), len(ref))
				}
				for i := range ref {
					if spans[i].off != ref[i].off || !bytes.Equal(spans[i].data, ref[i].data) {
						t.Fatalf("threshold %d seed %d op %d: span %d at %d (%d B), reference at %d (%d B)",
							threshold, seed, op, i, spans[i].off, len(spans[i].data), ref[i].off, len(ref[i].data))
					}
					if spans[i].off%mem.LineSize+len(spans[i].data) > mem.LineSize {
						crossing++
					}
				}
			}
			for op := 0; op < 600; op++ {
				off := rg.Off + mem.LineSize*rng.Intn(rg.Len/mem.LineSize)
				data := make([]byte, mem.LineSize-rng.Intn(2)*rng.Intn(mem.LineSize))
				rng.Read(data)
				mask := masks[rng.Intn(len(masks))](rng)
				got.absorb(off, data, mask)
				want.absorb(off, data, mask)
				if got.dirtyBytes != want.dirtyBytes {
					t.Fatalf("threshold %d seed %d op %d: %d dirty bytes, reference %d", threshold, seed, op, got.dirtyBytes, want.dirtyBytes)
				}
				if got.dirtyBytes >= threshold || rng.Intn(50) == 0 {
					flush(op)
				}
			}
			flush(-1)
		}
	}
	if crossing == 0 {
		t.Error("no span ran across a line boundary")
	}
}

// TestSIFBufferMatchesReferenceModel runs seeded scripts of inserts,
// re-inserts, takes (from anywhere in the FIFO), range invalidations,
// resets and evictions at capacity against sifBuffer and the map-plus-
// order reference, and asserts the same hits and contents, the same
// evictions, and the same resident lines in the same FIFO order.
func TestSIFBufferMatchesReferenceModel(t *testing.T) {
	k := sim.NewKernel()
	for _, capLines := range []int{1, 2, 8, 512} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := newSIFBuffer(k, 0, capLines), newRefSIFBuffer(capLines)
			// Keys from a space a few times the capacity, so scripts
			// both hit and evict.
			span := min(3*capLines+2, 256)
			key := func() (int, int, int) { return rng.Intn(2), rng.Intn(2), mem.LineSize * rng.Intn(span) }
			buf := make([]byte, mem.LineSize)
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(100); {
				case r < 50:
					dev, tile, off := key()
					data := make([]byte, mem.LineSize)
					rng.Read(data)
					got.insert(lineKey(dev, tile, off), data)
					want.insert(lineKey(dev, tile, off), data)
				case r < 85:
					dev, tile, off := key()
					ok := got.take(lineKey(dev, tile, off), buf)
					data, wok := want.take(lineKey(dev, tile, off))
					if ok != wok || ok && !bytes.Equal(buf, data) {
						t.Fatalf("cap %d seed %d op %d: take = %v %v, reference %v %v", capLines, seed, op, ok, buf, wok, data)
					}
				case r < 99:
					dev, tile, off := key()
					off += rng.Intn(mem.LineSize)
					n := 1 + rng.Intn(4*mem.LineSize)
					got.invalidateRange(dev, tile, off, n)
					want.invalidateRange(dev, tile, off, n)
				default:
					got.reset()
					want.reset()
				}
				var order []uint64
				for s := got.slots[0].next; s != 0; s = got.slots[s].next {
					order = append(order, got.slots[s].key)
				}
				if got.evictions != want.evictions || len(got.index) != len(order) || !slices.Equal(order, want.order) {
					t.Fatalf("cap %d seed %d op %d: evictions %d, FIFO %v (%d indexed); reference %d, %v",
						capLines, seed, op, got.evictions, order, len(got.index), want.evictions, want.order)
				}
			}
		}
	}
}
