package mem

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLMBReadWriteRoundTrip(t *testing.T) {
	l := NewLMB(LMBSize)
	data := []byte("hello, message passing buffer")
	l.Write(128, data)
	got := make([]byte, len(data))
	l.Read(128, got)
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestLMBZeroInitialized(t *testing.T) {
	l := NewLMB(LMBSize)
	buf := make([]byte, 64)
	l.Read(0, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestLMBLine(t *testing.T) {
	l := NewLMB(LMBSize)
	l.Write(64, []byte{1, 2, 3, 4})
	var line [LineSize]byte
	l.Read(65&^(LineSize-1), line[:]) // the 32B line holding byte 65
	if line[0] != 1 || line[3] != 4 {
		t.Errorf("line = %v, want prefix 1,2,3,4", line[:4])
	}
}

func TestLMBOutOfBoundsPanics(t *testing.T) {
	l := NewLMB(LMBSize)
	for _, c := range []struct {
		off, n int
	}{{LMBSize - 1, 2}, {-1, 1}, {0, LMBSize + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access at off=%d n=%d did not panic", c.off, c.n)
				}
			}()
			l.Read(c.off, make([]byte, c.n))
		}()
	}
}

func TestLMBBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLMB(33) did not panic")
		}
	}()
	NewLMB(33)
}

func TestCoreLMBSizeIs8KB(t *testing.T) {
	if CoreLMBSize != 8192 {
		t.Errorf("CoreLMBSize = %d, want 8192 (paper §4.1 footnote)", CoreLMBSize)
	}
}

func TestL1MissThenHit(t *testing.T) {
	c := NewL1(8)
	if _, ok := c.Lookup(42); ok {
		t.Fatal("lookup on empty cache hit")
	}
	var line [LineSize]byte
	line[0] = 0xAB
	c.Fill(42, line)
	got, ok := c.Lookup(42)
	if !ok || got[0] != 0xAB {
		t.Fatalf("lookup after fill = %v,%v", got, ok)
	}
}

func TestL1StaleDataWithoutInvalidation(t *testing.T) {
	// The core semantics of non-coherent memory: a cached line does NOT
	// see memory updates until invalidated.
	c := NewL1(8)
	var old [LineSize]byte
	old[0] = 1
	c.Fill(7, old)
	// Memory changes behind the cache's back; the cache still returns 1.
	got, ok := c.Lookup(7)
	if !ok || got[0] != 1 {
		t.Fatal("expected stale hit")
	}
	c.InvalidateAll()
	if _, ok := c.Lookup(7); ok {
		t.Fatal("lookup after InvalidateAll hit")
	}
}

func TestL1UpdateIfPresent(t *testing.T) {
	c := NewL1(8)
	var line [LineSize]byte
	c.Fill(1, line)
	c.UpdateIfPresent(1, 4, []byte{9, 9})
	got, _ := c.Lookup(1)
	if got[4] != 9 || got[5] != 9 {
		t.Errorf("update not applied: %v", got[:8])
	}
	c.UpdateIfPresent(2, 0, []byte{1}) // absent line: no-op, no panic
}

func TestL1FIFOEviction(t *testing.T) {
	c := NewL1(2)
	var line [LineSize]byte
	c.Fill(1, line)
	c.Fill(2, line)
	c.Fill(3, line) // evicts 1
	if _, ok := c.Lookup(1); ok {
		t.Error("line 1 should have been evicted")
	}
	_, ok2 := c.Lookup(2)
	_, ok3 := c.Lookup(3)
	if !ok2 || !ok3 || c.n != 2 {
		t.Error("lines 2,3 should be resident, and only they")
	}
}

func TestL1RefillSameKeyNoEvict(t *testing.T) {
	c := NewL1(2)
	var a, b [LineSize]byte
	a[0] = 1
	b[0] = 2
	c.Fill(5, a)
	c.Fill(5, b) // refill same key must not grow occupancy
	if c.n != 1 {
		t.Errorf("len = %d, want 1", c.n)
	}
	got, _ := c.Lookup(5)
	if got[0] != 2 {
		t.Error("refill did not replace data")
	}
}

func TestWCBMergesSameLine(t *testing.T) {
	var w WCB
	if d := w.Write(10, 0, []byte{1, 2, 3, 4}); d != nil {
		t.Fatal("first write drained")
	}
	if d := w.Write(10, 4, []byte{5, 6, 7, 8}); d != nil {
		t.Fatal("same-line write drained")
	}
	p := w.Flush()
	if p == nil {
		t.Fatal("flush returned nil")
	}
	if n := bits.OnesCount32(p.Mask); p.Key != 10 || n != 8 {
		t.Errorf("pending = key %d, %d bytes; want 10, 8", p.Key, n)
	}
	if p.Data[0] != 1 || p.Data[7] != 8 {
		t.Errorf("pending data wrong: %v", p.Data[:8])
	}
}

func TestWCBDrainsOnLineSwitch(t *testing.T) {
	var w WCB
	w.Write(1, 0, []byte{0xAA})
	d := w.Write(2, 0, []byte{0xBB})
	if d == nil || d.Key != 1 || d.Data[0] != 0xAA {
		t.Fatalf("line switch did not drain line 1: %+v", d)
	}
	if !w.valid {
		t.Error("WCB should hold line 2")
	}
}

func TestWCBVDMARegisterFusion(t *testing.T) {
	// The paper's vDMA programming: three 8-byte registers (address,
	// count, control) contiguous within one 32 B line fuse into a single
	// remote write.
	var w WCB
	if d := w.Write(0, 0, []byte{1, 0, 0, 0, 0, 0, 0, 0}); d != nil { // address
		t.Fatal("unexpected drain")
	}
	if d := w.Write(0, 8, []byte{2, 0, 0, 0, 0, 0, 0, 0}); d != nil { // count
		t.Fatal("unexpected drain")
	}
	if d := w.Write(0, 16, []byte{3, 0, 0, 0, 0, 0, 0, 0}); d != nil { // control
		t.Fatal("unexpected drain")
	}
	p := w.Flush()
	if p == nil || bits.OnesCount32(p.Mask) != 24 {
		t.Fatalf("fusion produced %v, want one 24-byte pending line", p)
	}
	if p.Data[0] != 1 || p.Data[8] != 2 || p.Data[16] != 3 {
		t.Errorf("fused registers = %v, want 1, 2, 3 at offsets 0, 8, 16", p.Data[:24])
	}
}

func TestWCBFullLine(t *testing.T) {
	var w WCB
	full := make([]byte, LineSize)
	w.Write(3, 0, full)
	p := w.Flush()
	if p == nil || p.Mask != 0xFFFFFFFF {
		t.Errorf("full-line write not reported full: %+v", p)
	}
}

func TestWCBFlushEmpty(t *testing.T) {
	var w WCB
	if p := w.Flush(); p != nil {
		t.Errorf("flush of clean WCB = %+v, want nil", p)
	}
}

func TestWCBWriteOutsideLinePanics(t *testing.T) {
	var w WCB
	defer func() {
		if recover() == nil {
			t.Error("oversized WCB write did not panic")
		}
	}()
	w.Write(0, 30, []byte{1, 2, 3})
}

// Property: LMB writes at arbitrary aligned offsets always read back
// identically and never disturb neighbouring bytes.
func TestPropertyLMBIsolation(t *testing.T) {
	f := func(off uint16, val byte) bool {
		l := NewLMB(LMBSize)
		o := int(off) % (LMBSize - 1)
		l.Write(o, []byte{val})
		got := make([]byte, 1)
		l.Read(o, got)
		if got[0] != val {
			return false
		}
		// All other bytes stay zero.
		buf := make([]byte, LMBSize)
		l.Read(0, buf)
		for i, b := range buf {
			if i != o && b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of WCB writes preserves every byte in either the
// buffer or exactly one drained line (no loss, no duplication of keys in
// flight).
func TestPropertyWCBNoByteLoss(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Off uint8
		Val byte
	}) bool {
		var w WCB
		want := map[uint64][LineSize]byte{}
		mask := map[uint64]uint32{}
		apply := func(p *Pending) {
			if p == nil {
				return
			}
			line := want[p.Key]
			for i := 0; i < LineSize; i++ {
				if p.Mask&(1<<uint(i)) != 0 {
					line[i] = p.Data[i]
				}
			}
			want[p.Key] = line
			mask[p.Key] |= p.Mask
		}
		shadow := map[uint64][LineSize]byte{}
		shadowMask := map[uint64]uint32{}
		for _, op := range ops {
			key := uint64(op.Key % 4)
			off := int(op.Off) % LineSize
			apply(w.Write(key, off, []byte{op.Val}))
			line := shadow[key]
			line[off] = op.Val
			shadow[key] = line
			shadowMask[key] |= 1 << uint(off)
		}
		apply(w.Flush())
		for key, m := range shadowMask {
			if mask[key] != m {
				return false
			}
			wantLine, gotLine := shadow[key], want[key]
			for i := 0; i < LineSize; i++ {
				if m&(1<<uint(i)) != 0 && wantLine[i] != gotLine[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNextRunWalksMaskRuns(t *testing.T) {
	runs := func(mask uint32, limit int) [][2]int {
		var out [][2]int
		for lo, hi := NextRun(mask, 0, limit); lo < hi; lo, hi = NextRun(mask, hi, limit) {
			out = append(out, [2]int{lo, hi})
		}
		return out
	}
	for _, c := range []struct {
		mask  uint32
		limit int
		want  [][2]int
	}{
		{0, LineSize, nil},
		{0xFFFFFFFF, LineSize, [][2]int{{0, 32}}},
		{0xFFFFFFFF, 5, [][2]int{{0, 5}}}, // a short delivery clips the line
		{0b1, LineSize, [][2]int{{0, 1}}},
		{0x80000000, LineSize, [][2]int{{31, 32}}},
		{0b0111_0000_0110, LineSize, [][2]int{{1, 3}, {8, 11}}},
		{0b0111_0000_0110, 9, [][2]int{{1, 3}, {8, 9}}},
	} {
		if got := runs(c.mask, c.limit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("mask %#x limit %d: runs %v, want %v", c.mask, c.limit, got, c.want)
		}
	}
}

// nextRunRef is NextRun's per-bit walk, kept as the reference model.
func nextRunRef(mask uint32, from, limit int) (lo, hi int) {
	lo = from
	for lo < limit && mask&(1<<uint(lo)) == 0 {
		lo++
	}
	hi = lo
	for hi < limit && mask&(1<<uint(hi)) != 0 {
		hi++
	}
	return lo, hi
}

// TestNextRunMatchesPerBitWalk checks NextRun against the per-bit walk
// at every from/limit pair of a line, over the empty and full masks and
// seeded random ones.
func TestNextRunMatchesPerBitWalk(t *testing.T) {
	masks := []uint32{0, 0xFFFFFFFF, 1, 0x80000000, 0x7FFFFFFE}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		// Sparse, dense and even masks: AND and OR of two draws too.
		a, b := rng.Uint32(), rng.Uint32()
		masks = append(masks, a, a&b, a|b)
	}
	for _, mask := range masks {
		for from := 0; from <= LineSize; from++ {
			for limit := 0; limit <= LineSize; limit++ {
				lo, hi := NextRun(mask, from, limit)
				wlo, whi := nextRunRef(mask, from, limit)
				if lo != wlo || hi != whi {
					t.Fatalf("NextRun(%#x, %d, %d) = %d, %d; per-bit walk %d, %d", mask, from, limit, lo, hi, wlo, whi)
				}
			}
		}
	}
}

// A write sets exactly the mask bits of the bytes it covers, at every
// offset and length, the full line included.
func TestWCBWriteMask(t *testing.T) {
	data := make([]byte, LineSize)
	for off := 0; off <= LineSize; off++ {
		for n := 0; off+n <= LineSize; n++ {
			var w WCB
			w.Write(1, off, data[:n])
			var want uint32
			for i := off; i < off+n; i++ {
				want |= 1 << uint(i)
			}
			if p := w.Flush(); p.Mask != want {
				t.Fatalf("write at %d of %d bytes: mask %#x, want %#x", off, n, p.Mask, want)
			}
		}
	}
}
