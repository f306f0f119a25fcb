// Fixture for bannedcall's flag-addressing rows inside a
// protocol-extension package (the harness loads it under an
// internal/ircce import path): raw addressing is legal there, but the
// kind must be a named constant.
package flagdiscipline_ext

type rank struct{}

func (rank) FlagByteAt(kind, peer int) int    { return 0 }
func (rank) PeekFlagByte(kind, peer int) byte { return 0 }

const flagReady = 1

func extension(r rank) {
	_ = r.FlagByteAt(flagReady, 1)   // ok: named kind inside an extension
	_ = r.PeekFlagByte(flagReady, 1) // ok: raw peeks are the extension's business
	_ = r.FlagByteAt(1, 1)           // want "numeric flag kind 1 in FlagByteAt"
	_ = r.PeekFlagByte(1, 1)         // want "numeric flag kind 1 in PeekFlagByte"
}
