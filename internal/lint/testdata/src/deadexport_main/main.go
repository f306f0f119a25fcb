// The package main of the deadexport fixture: the only user of ForMain.
package main

import "fixture/deadexport"

func main() { _ = deadexport.ForMain() }
