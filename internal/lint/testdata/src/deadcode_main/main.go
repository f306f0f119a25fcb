// The package main of the deadcode fixture: it calls ForMain and Size
// through the Sizer interface.
package main

import "fixture/deadcode"

func main() { _ = deadcode.ForMain().Size() }
