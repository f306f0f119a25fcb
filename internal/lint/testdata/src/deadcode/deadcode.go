// Fixture for the deadcode rule: code needs a path from a package main,
// an init or a kept root. ../deadcode_main is the command calling
// ForMain, ../deadcode_bench stands in for bench/ and calls ForBench,
// deadcode_test.go calls onlyTests.
package deadcode

import "fmt"

// orphan is unexported and called by nobody.
func orphan() int { return 1 } // want "orphan: no path from any package main"

// onlyTests is called by deadcode_test.go alone, which is no root.
func onlyTests() int { return 1 } // want "onlyTests: no path"

// Orphan is a var nobody reads.
var Orphan = 3 // want "Orphan: no path"

// unusedType is a type nobody names.
type unusedType struct{} // want "unusedType: no path"

// Sizer is a module interface: package main calls Size through it, no
// reached code calls Read.
type Sizer interface {
	Size() int
	Read() int
}

// width is live: it is only an array length, in T.
const width = 4

// The kinds count with iota: kindNone is live although only kindLine is
// named, because an iota block lives as a whole.
const (
	kindNone = iota
	kindLine
)

// T is live: ForMain returns it.
type T struct {
	n    int
	cols [width]byte
}

// Reset is a dead method of a live type.
func (t *T) Reset() { t.n = 0 } // want "Reset: no path"

// String is live: *T implements fmt.Stringer.
func (t *T) String() string { return fmt.Sprint(t.n) }

// Size is live: package main calls Sizer.Size.
func (t *T) Size() int { return t.n }

// Read is dead: *T implements Sizer, but only the dead readAll calls
// Sizer.Read.
func (t *T) Read() int { return int(t.cols[0]) } // want "Read: no path"

// readAll is the dead caller of Sizer.Read.
func readAll(s Sizer) int { return s.Read() } // want "readAll: no path"

// tick is live: ForMain passes it to every as a method value.
func (t *T) tick() { t.n++ }

func every(f func()) { f() }

// table is live: ForMain reads it; its initializer reaches build.
var table = build()

// build is live: only table's initializer calls it.
func build() []int { return []int{kindLine} }

// ForMain is live: package main calls it.
func ForMain() Sizer {
	t := &T{n: Max[int](table[0], Box[int]{}.Get())}
	every(t.tick)
	return t
}

// ForBench is live: only the second package main calls it.
func ForBench() int { return 2 }

// Box is live: ForMain uses an instantiation of it.
type Box[E any] struct{ v E }

// Get is live: ForMain calls it on an instantiated Box.
func (b Box[E]) Get() E { return b.v }

// Max is live: ForMain calls an instantiation of it.
func Max[E int | float64](a, b E) E {
	if a > b {
		return a
	}
	return b
}

// chainHead calls into a dead chain whose middle is kept; only the
// unkept head is reported.
func chainHead() int { return chainKept() } // want "chainHead: no path"

//lint:ignore deadcode the fixture keeps the middle of a dead chain
func chainKept() int { return chainTail() }

// chainTail is live: the keep on chainKept is a root.
func chainTail() int { return 5 }

// A keep on live code covers no finding.
//
//lint:ignore deadcode stale keep on ForBench's callee // want "unused suppression for deadcode"
func benchHelper() int { return ForBench() }

// init is a root, so benchHelper is live.
func init() { _ = benchHelper() }
