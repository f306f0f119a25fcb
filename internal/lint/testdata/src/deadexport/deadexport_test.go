package deadexport

import "testing"

func TestUses(t *testing.T) {
	var x T
	x.Reset()
	if OnlyTests() != 1 {
		t.Fatal("fixture values")
	}
}
