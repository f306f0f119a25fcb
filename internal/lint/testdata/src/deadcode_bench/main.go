// The second package main of the deadcode fixture, standing in for
// bench/: the only caller of ForBench.
package main

import "fixture/deadcode"

func main() { _ = deadcode.ForBench() }
