package main

import (
	"math"
	"testing"

	"vscc/internal/sim"
)

// TestRunPinned pins both runs of the example: finish cycle, mean clock
// and energy, the floats as exact bits, so a change to the power model
// that moves any of them by one ulp shows here.
func TestRunPinned(t *testing.T) {
	for _, c := range []struct {
		scaleDown bool
		finish    sim.Cycles
		mhz, j    uint64
	}{
		{false, 4013426, 0x4080a80000000000, 0x3faed7a6c053e357}, // 533 MHz, 60.24 mJ
		{true, 4013426, 0x4072b60000000000, 0x3fa8aed9d513ab86},  // 299.375 MHz, 48.21 mJ
	} {
		finish, mhz, j := run(c.scaleDown)
		if finish != c.finish || math.Float64bits(mhz) != c.mhz || math.Float64bits(j) != c.j {
			t.Errorf("run(%v) = %d cycles, %v MHz, %v J; want %d, %v, %v", c.scaleDown,
				finish, mhz, j, c.finish, math.Float64frombits(c.mhz), math.Float64frombits(c.j))
		}
	}
}
