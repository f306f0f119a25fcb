// Fixture for the deadexport rule: an exported name needs a use in a
// non-test file somewhere in the program. deadexport_test.go calls the
// two flagged names; ../deadexport_main is the package main importing
// this one.
package deadexport

import "fmt"

// OnlyTests is called by the tests alone.
func OnlyTests() int { return 1 } // want "exported OnlyTests has no use outside the tests"

// Orphan is used by nobody.
var Orphan = 3 // want "exported Orphan has no use outside the tests"

// Sizer is an interface of the module.
type Sizer interface{ Size() int }

// T is handed to package main through ForMain.
type T struct{ n int }

// Reset is called by the tests alone.
func (t *T) Reset() { t.n = 0 } // want "exported Reset has no use outside the tests"

// String is live: it implements fmt.Stringer.
func (t *T) String() string { return fmt.Sprint(t.n) }

// Size is live: it implements the module's Sizer.
func (t *T) Size() int { return t.n }

// ForMain is live: package main calls it.
func ForMain() Sizer { return &T{n: Max[int](Internal(), Box[int]{}.Get())} }

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

// Internal is live: this package's own non-test code calls it.
func Internal() int { return 2 }
