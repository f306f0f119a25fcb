// Package mem models the Intel SCC's software-controlled on-chip memory
// system: the per-tile local memory buffer (LMB) that holds the message
// passing buffer (MPB) and the synchronization-flag (SF) region, the L1
// cache behaviour of the MPBT memory type (write-through, bulk-invalidate
// via CL1INVMB), the write-combine buffer (WCB) that fuses consecutive
// stores to one cache line, and the per-core test-and-set registers.
//
// The models are functional: they store real bytes, so forgetting an
// invalidation yields genuinely stale data — exactly the programming
// hazard the SCC's non-coherent memory exposes and that the RCCE
// protocols are built to control.
package mem

import "fmt"

// LineSize is the cache-line granularity (bytes) of the SCC memory
// system; the MPB, L1 and WCB all operate on 32-byte lines.
const LineSize = 32

// LMBSize is the size in bytes of one tile's local memory buffer (16 KB,
// shared by the tile's two cores: 8 KB each for MPB plus flags).
const LMBSize = 16 * 1024

// CoreLMBSize is the per-core share of the tile's LMB (8 KB). The paper's
// §4.1 footnote: "The Local Memory Buffer of 8 kB holds the MPB and flags
// for synchronization" — the 8 KB threshold visible in Fig. 6b.
const CoreLMBSize = LMBSize / 2

// LMB is one tile's local memory buffer: a plain on-chip SRAM holding
// real bytes. Its storage is allocated by the first Write; until then
// the buffer reads as zeros.
type LMB struct {
	size int
	data []byte // nil until written
}

// zeroBank backs the View of an untouched LMB.
var zeroBank [LMBSize]byte

// NewLMB returns a zeroed LMB of the given size (use LMBSize for an SCC
// tile).
func NewLMB(size int) *LMB {
	if size <= 0 || size%LineSize != 0 {
		panic(fmt.Sprintf("mem: LMB size %d not a positive multiple of %d", size, LineSize))
	}
	return &LMB{size: size}
}

// Size returns the buffer capacity in bytes.
func (l *LMB) Size() int { return l.size }

// Read copies len(buf) bytes starting at off into buf.
func (l *LMB) Read(off int, buf []byte) {
	l.check(off, len(buf))
	if l.data == nil {
		clear(buf)
		return
	}
	copy(buf, l.data[off:])
}

// Write copies data into the buffer at off.
func (l *LMB) Write(off int, data []byte) {
	l.check(off, len(data))
	if l.data == nil {
		l.data = make([]byte, l.size)
	}
	copy(l.data[off:], data)
}

// Zero clears the buffer in place.
func (l *LMB) Zero() { clear(l.data) }

// View returns the buffer's whole contents without copying. It aliases
// live storage — or, for an untouched buffer, a shared zero image — so
// callers must only read it, and only until the next Write.
func (l *LMB) View() []byte {
	if l.data == nil {
		if l.size <= len(zeroBank) {
			return zeroBank[:l.size:l.size]
		}
		return make([]byte, l.size)
	}
	return l.data
}

// Line returns a copy of the 32-byte line containing off.
func (l *LMB) Line(off int) [LineSize]byte {
	base := off &^ (LineSize - 1)
	var line [LineSize]byte
	l.Read(base, line[:])
	return line
}

func (l *LMB) check(off, n int) {
	if off < 0 || n < 0 || off+n > l.size {
		panic(fmt.Sprintf("mem: LMB access [%d,%d) outside %d-byte buffer", off, off+n, l.size))
	}
}

// TestAndSet models the SCC's per-core test-and-set register, the chip's
// only atomic primitive. Set returns the previous value and leaves the
// register set; Clear resets it.
type TestAndSet struct {
	set bool
}

// Set atomically reads and sets the register; it returns true if the
// caller acquired it (register was clear).
func (t *TestAndSet) Set() bool {
	was := t.set
	t.set = true
	return !was
}

// Clear releases the register.
func (t *TestAndSet) Clear() { t.set = false }

// IsSet reports the current value without modifying it.
func (t *TestAndSet) IsSet() bool { return t.set }
