package scc

import (
	"testing"

	"vscc/internal/sim"
)

func TestDefaultLUTMappings(t *testing.T) {
	l := DefaultLUT(2)
	if e := l.entries[MPBPage]; e.Kind != LUTMPB || e.Dev != 2 {
		t.Errorf("MPB page entry = %+v", e)
	}
	if e := l.entries[MMIOPage]; e.Kind != LUTHostMMIO {
		t.Errorf("MMIO page entry = %+v", e)
	}
	if e := l.entries[0]; e.Kind != LUTPrivate {
		t.Errorf("page 0 entry = %+v", e)
	}
	if e := l.entries[0x42]; e.Kind != LUTUnmapped {
		t.Errorf("unmapped page entry = %+v", e)
	}
}

// A vSCC remote window lands on every core of the chip, which share one
// table, and only inside the table.
func TestRemoteWindowSharedByCores(t *testing.T) {
	c := NewChip(sim.NewKernel(), 0, DefaultParams())
	l := c.Cores[0].LUT
	if err := l.MapRemoteDevice(3); err != nil {
		t.Fatal(err)
	}
	if e := c.Cores[47].LUT.entries[RemoteMPBPageBase+3]; e.Kind != LUTMPB || e.Dev != 3 {
		t.Errorf("remote window on a sibling core = %+v, want device 3's MPB", e)
	}
	if err := l.MapRemoteDevice(LUTEntries - RemoteMPBPageBase); err == nil {
		t.Error("out-of-range page accepted")
	}
}
