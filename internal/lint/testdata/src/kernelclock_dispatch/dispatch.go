// Fixture for interface dispatch in the transitive kernelclock check: a
// call through an interface reaches the methods of the module types
// that implement it, and no other method that merely shares the name
// and the arity.
package noc

import "vscc/internal/util"

func viaStamper(s util.Stamper) int64 {
	return s.Stamp(1) // want "call reaches time.Now: util.\\(WallStamper\\).Stamp; simulated time"
}

func viaQuiet(q util.Quiet) int64 {
	q.Reset()
	return q.Stamp(1) // ok: the one implementer is effect-free
}

func concrete(f util.Fanout) int64 {
	return f.Stamp(1) // want "call reaches raw concurrency .goroutine. outside the engine: util.\\(Fanout\\).Stamp"
}
