// Fixture for bannedcall's WaitFlag row: inter-device protocol waits
// must use the budget-carrying *For primitives. The stubs mirror the
// scc.Ctx and rcce.Rank method names the analyzer matches on.
package faultorder

type ctx struct{}

func (ctx) WaitFlag(tile, off int, pred func(byte) bool)                           {}
func (ctx) WaitFlagFor(tile, off int, pred func(byte) bool, b uint64) (byte, bool) { return 0, true }
func (ctx) WaitLMBChangeFor(tile int, b uint64) bool                               { return true }

type rank struct{ c ctx }

func (rank) AwaitSentFor(peer int, b uint64) bool  { return true }
func (rank) AwaitReadyFor(peer int, b uint64) bool { return true }
func (rank) WaitAnyLocalChangeFor(b uint64) bool   { return true }

func goodWaits(c ctx, r rank) {
	_, _ = c.WaitFlagFor(0, 0, func(b byte) bool { return b == 1 }, 0)
	_ = c.WaitLMBChangeFor(0, 1000)
	_ = r.AwaitSentFor(0, 0)
	_ = r.AwaitReadyFor(0, 0)
	_ = r.WaitAnyLocalChangeFor(0)
}

func badWaits(c ctx) {
	c.WaitFlag(0, 0, func(b byte) bool { return b == 1 }) // want "un-budgeted engaged wait WaitFlag"
}

func suppressedWait(c ctx) {
	//lint:ignore bannedcall on-chip barrier flag; same-device writes cannot be lost
	c.WaitFlag(0, 0, func(b byte) bool { return b == 1 })
}
