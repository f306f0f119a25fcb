// Fixture for gory-effect splicing at call sites in _test.go files:
// test files are type-checked like build files, so a method call there
// resolves to its one callee even when another type has a method of the
// same name and arity.
package vscc

type ctx struct{}

func (ctx) WriteMPB(dev, tile, off int, b []byte) {}
func (ctx) FlushWCB()                             {}

type rank struct{}

func (rank) SignalSent(peer int) {}

var buf = []byte{1}

type sender struct{ r rank }

// notify signals; whether that is safe depends on the caller's state.
func (s sender) notify(peer int) { s.r.SignalSent(peer) }

type logger struct{}

// notify on an unrelated type: same name, same arity, no gory effect.
func (logger) notify(code int) {}
