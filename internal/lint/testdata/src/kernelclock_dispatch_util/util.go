// Helper-package fixture loaded as a dependency of kernelclock_dispatch,
// outside the audited model/engine set. Stamp exists three times with
// one name and one arity; only the types say which of them a call
// through an interface can reach.
package util

import "time"

// Stamper is the interface the model package dispatches through.
type Stamper interface {
	Stamp(n int) int64
	Source() string
}

// WallStamper implements Stamper and reads the wall clock.
type WallStamper struct{}

func (WallStamper) Stamp(n int) int64 { return time.Now().UnixNano() + int64(n) }
func (WallStamper) Source() string    { return "wall" }

// Fanout has a Stamp too, with raw concurrency in it — but no Source, so
// it is not a Stamper and no Stamper call can land here.
type Fanout struct{}

func (Fanout) Stamp(n int) int64 { go func() {}(); return int64(n) }

// Counter is what Quiet dispatches to: effect-free.
type Counter struct{ n int64 }

func (c *Counter) Stamp(n int) int64 { c.n += int64(n); return c.n }
func (c *Counter) Reset()            { c.n = 0 }

// Quiet is implemented by Counter alone.
type Quiet interface {
	Stamp(n int) int64
	Reset()
}
