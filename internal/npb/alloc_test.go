package npb

import (
	"runtime"
	"testing"
)

// iterationAlloc returns the heap bytes one extra time step of run
// costs: the TotalAlloc growth of a 5-iteration run over a 1-iteration
// run, per extra iteration. MemStats counts the whole process, so a try
// can catch a stray runtime allocation: it keeps the least of three.
func iterationAlloc(run func(iters int)) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var m0, m1, m5 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(1)
		runtime.ReadMemStats(&m1)
		run(5)
		runtime.ReadMemStats(&m5)
		one, five := m1.TotalAlloc-m0.TotalAlloc, m5.TotalAlloc-m1.TotalAlloc
		least = min(least, (max(five, one)-one)/4)
	}
	return least
}

// TestIterationAllocations pins BT's and LU's time steps to a few
// hundred bytes of heap: every face, boundary and pencil message slices
// the rank's send or receive buffer, and the sweep state lives in
// storage sized at setup.
func TestIterationAllocations(t *testing.T) {
	const bound = 16 << 10
	cases := []struct {
		name string
		run  func(iters int)
	}{
		{"bt/timing", func(iters int) { runBT(t, ClassW, 9, iters, true) }},
		{"bt/verify", func(iters int) { runBT(t, ClassS, 9, iters, false) }},
		{"lu/timing", func(iters int) { runLU(t, ClassW, 9, iters, true) }},
		{"lu/verify", func(iters int) { runLU(t, ClassS, 9, iters, false) }},
	}
	for _, tc := range cases {
		if got := iterationAlloc(tc.run); got > bound {
			t.Errorf("%s: one time step allocates %d B, want at most %d", tc.name, got, bound)
		} else {
			t.Logf("%s: %d B per time step", tc.name, got)
		}
	}
}
