// Fixture for bannedcall's flag-addressing rows outside the
// protocol-extension packages: every raw flag-byte access is a finding,
// and a numeric kind argument adds a second one.
package flagdiscipline

import (
	"example.test/notrcce"
	"vscc/internal/rcce"
)

type rank struct{}

func (rank) FlagByteAt(kind, peer int) int    { return 0 }
func (rank) PeekFlagByte(kind, peer int) byte { return 0 }

const flagSent = 0

func misuse(r rank) {
	_ = r.FlagByteAt(0, 1)          // want "raw flag-byte addressing .FlagByteAt. outside a protocol extension" "numeric flag kind 0 in FlagByteAt"
	_ = r.PeekFlagByte(flagSent, 1) // want "raw flag-byte addressing .PeekFlagByte. outside a protocol extension"
}

func namedKindStillOutside(r rank) {
	_ = r.FlagByteAt(flagSent, 1) // want "raw flag-byte addressing .FlagByteAt. outside a protocol extension"
}

func qualified() {
	_ = rcce.FlagByteAt(1, 2)    // want "raw flag-byte addressing .FlagByteAt. outside a protocol extension" "numeric flag kind 1 in FlagByteAt"
	_ = notrcce.FlagByteAt(0, 1) // ok: same-named function from an unrelated package
}

func suppressed(r rank) {
	//lint:ignore bannedcall fixture proves targeted suppression
	_ = r.PeekFlagByte(flagSent, 1)
}
