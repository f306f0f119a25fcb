// Fixture for the interprocedural goryorder extension: helper functions
// carry gory-effect summaries (ordered write/flush/signal/wait/
// invalidate/read sequences), and the §3.1 state machine runs across
// call boundaries. A violation is reported at the boundary only when the
// state-setter and the violator come from different call sites — a
// violation wholly inside one callee is that callee's own finding.
package vscc

type ctx struct{}

func (ctx) WriteMPB(dev, tile, off int, b []byte) {}
func (ctx) ReadMPB(dev, tile, off, n int) []byte  { return nil }
func (ctx) FlushWCB()                             {}
func (ctx) InvalidateMPB()                        {}

type rank struct{}

func (rank) SignalSent(peer int) {}
func (rank) ClearSent(peer int)  {}

var buf = []byte{1}

// stage leaves an unflushed MPB write behind for the caller.
func stage(c ctx) {
	c.WriteMPB(0, 0, 0, buf)
}

// notify signals; whether that is safe depends on the caller's state.
func notify(r rank) {
	r.SignalSent(1)
}

// consume reads the MPB; safety depends on the caller's invalidate.
func consume(c ctx) []byte {
	return c.ReadMPB(0, 0, 0, 32)
}

// await waits on the sent flag without invalidating.
func await(r rank) {
	r.ClearSent(0)
}

// getLike invalidates internally before reading, like scc.Ctx.Get.
func getLike(c ctx) []byte {
	c.InvalidateMPB()
	return c.ReadMPB(0, 0, 0, 32)
}

func badCallerSignals(c ctx, r rank) {
	stage(c)
	r.SignalSent(1) // want "SignalSent before FlushWCB of the preceding MPB data write .WriteMPB via vscc.stage."
}

func badCalleeSignals(c ctx, r rank) {
	c.WriteMPB(0, 0, 0, buf)
	notify(r) // want "SignalSent via vscc.notify before FlushWCB of the preceding MPB data write .WriteMPB."
}

func badCalleeReads(c ctx, r rank) {
	r.ClearSent(0)
	_ = consume(c) // want "MPB read .ReadMPB via vscc.consume. after a flag wait .ClearSent."
}

func badCallerReads(c ctx, r rank) {
	await(r)
	_ = c.ReadMPB(0, 0, 0, 32) // want "MPB read .ReadMPB. after a flag wait .ClearSent via vscc.await."
}

func goodFlushBetween(c ctx, r rank) {
	stage(c)
	c.FlushWCB()
	r.SignalSent(1)
}

func goodGetLike(c ctx, r rank) {
	r.ClearSent(0)
	_ = getLike(c)
}

// badInside violates §3.1 wholly inside one function: the finding lands
// here, at the definition, and its caller below stays clean.
func badInside(c ctx, r rank) {
	c.WriteMPB(0, 0, 0, buf)
	r.SignalSent(1) // want "SignalSent before FlushWCB of the preceding MPB data write"
}

func cleanCallerOfBadInside(c ctx, r rank) {
	badInside(c, r)
}

func provenSafe(c ctx, r rank) {
	stage(c)
	//lint:ignore goryorder proof: stage targets the scratch line, which the peer re-reads coherently
	r.SignalSent(1)
}
