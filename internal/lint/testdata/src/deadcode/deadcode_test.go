package deadcode

import "testing"

func TestUses(t *testing.T) {
	var x T
	x.Reset()
	if onlyTests() != 1 || orphan() != 1 {
		t.Fatal("fixture values")
	}
}
