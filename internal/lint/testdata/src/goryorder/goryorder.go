// Fixture for the goryorder rule: gory-protocol call sites must flush
// the write-combine buffer before signalling and invalidate the L1 after
// waiting on a flag. The stub types mirror the scc/rcce method names the
// analyzer matches on.
package goryorder

type ctx struct{}

func (ctx) WriteMPB(dev, tile, off int, b []byte) {}
func (ctx) ReadMPB(dev, tile, off, n int) []byte  { return nil }
func (ctx) FlushWCB()                             {}
func (ctx) InvalidateMPB()                        {}

type rank struct{ c ctx }

func (rank) SignalSent(peer int)    {}
func (rank) SignalReady(peer int)   {}
func (rank) ClearSent(peer int)     {}
func (rank) PeekSent(peer int) bool { return false }

// FlagByteAt mirrors the rcce raw flag-address helper.
func FlagByteAt(kind, peer int) int { return 0 }

var buf = []byte{1}

func goodSend(c ctx, r rank) {
	c.WriteMPB(0, 0, 0, buf)
	c.FlushWCB()
	r.SignalSent(1)
}

func badSend(c ctx, r rank) {
	c.WriteMPB(0, 0, 0, buf)
	r.SignalSent(1) // want "SignalSent before FlushWCB of the preceding MPB data write"
}

func goodRecv(c ctx, r rank) {
	r.ClearSent(0)
	c.InvalidateMPB()
	_ = c.ReadMPB(0, 0, 0, 32)
}

func badRecv(c ctx, r rank) {
	r.ClearSent(0)
	_ = c.ReadMPB(0, 0, 0, 32) // want "MPB read after a flag wait without InvalidateMPB"
}

// Peek-based polling consumes flag state exactly like a wait does: the
// read after it still needs the invalidate.
func badPeekRecv(c ctx, r rank) {
	for !r.PeekSent(0) {
	}
	r.ClearSent(0)
	_ = c.ReadMPB(0, 0, 0, 32) // want "MPB read after a flag wait without InvalidateMPB"
}

// A raw flag-byte store is a signal; unflushed data must not precede it,
// even when the flag offset was hoisted into a local.
func badHoistedFlagWrite(c ctx) {
	sentOff := FlagByteAt(0, 1)
	c.WriteMPB(0, 0, 0, buf)
	c.WriteMPB(0, 1, sentOff, buf) // want "flag byte written before FlushWCB of the preceding MPB data write"
}

func goodFlagWrite(c ctx) {
	c.WriteMPB(0, 0, 0, buf)
	c.FlushWCB()
	c.WriteMPB(0, 1, FlagByteAt(0, 1), buf) // ok: data flushed first
}

func suppressedRecv(c ctx, r rank) {
	r.ClearSent(0)
	//lint:ignore goryorder peer writes through an uncached alias in this fixture
	_ = c.ReadMPB(0, 0, 0, 32)
}
