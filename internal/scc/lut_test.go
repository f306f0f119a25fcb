package scc

import (
	"bytes"
	"testing"

	"vscc/internal/sim"
)

func TestVAddrDecomposition(t *testing.T) {
	a := VAddr(0xC0_012345)
	if a.Page() != 0xC0 {
		t.Errorf("page = %#x", a.Page())
	}
	if a.PageOff() != 0x012345 {
		t.Errorf("page off = %#x", a.PageOff())
	}
}

func TestDefaultLUTMappings(t *testing.T) {
	l := DefaultLUT(2)
	if e := l.Entry(MPBPage); e.Kind != LUTMPB || e.Dev != 2 {
		t.Errorf("MPB page entry = %+v", e)
	}
	if e := l.Entry(MMIOPage); e.Kind != LUTHostMMIO {
		t.Errorf("MMIO page entry = %+v", e)
	}
	if e := l.Entry(0); e.Kind != LUTPrivate {
		t.Errorf("page 0 entry = %+v", e)
	}
	if e := l.Entry(0x42); e.Kind != LUTUnmapped {
		t.Errorf("unmapped page entry = %+v", e)
	}
}

func TestLUTFaultOnUnmapped(t *testing.T) {
	l := DefaultLUT(0)
	if _, _, err := l.Resolve(VAddr(0x42_000000)); err == nil {
		t.Error("unmapped access did not fault")
	}
	if err := l.Map(256, LUTEntry{}); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestMPBAddrRoundTrip(t *testing.T) {
	l := DefaultLUT(0)
	a := MPBAddr(7, 1234)
	e, off, err := l.Resolve(a)
	if err != nil {
		t.Fatal(err)
	}
	dev, tile, tileOff, err := mpbTarget(e, off)
	if err != nil {
		t.Fatal(err)
	}
	if dev != 0 || tile != 7 || tileOff != 1234 {
		t.Errorf("resolved to (%d,%d,%d), want (0,7,1234)", dev, tile, tileOff)
	}
}

func TestRemoteMPBAddr(t *testing.T) {
	l := DefaultLUT(0)
	if err := l.MapRemoteDevice(3); err != nil {
		t.Fatal(err)
	}
	a := RemoteMPBAddr(3, 23, 16000)
	e, off, err := l.Resolve(a)
	if err != nil {
		t.Fatal(err)
	}
	dev, tile, tileOff, err := mpbTarget(e, off)
	if err != nil {
		t.Fatal(err)
	}
	if dev != 3 || tile != 23 || tileOff != 16000 {
		t.Errorf("resolved to (%d,%d,%d), want (3,23,16000)", dev, tile, tileOff)
	}
}

func TestMPBWindowBeyondChipFaults(t *testing.T) {
	l := DefaultLUT(0)
	a := VAddr(MPBPage)<<24 | VAddr(24*16384) // one tile past the end
	e, off, err := l.Resolve(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mpbTarget(e, off); err == nil {
		t.Error("off-chip MPB window offset did not fault")
	}
}

func TestReadVWriteVThroughLUT(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	msg := []byte("virtual-address gory access")
	got := make([]byte, len(msg))
	c.Launch(0, "p", func(ctx *Ctx) {
		if err := ctx.WriteV(MPBAddr(5, 64), msg); err != nil {
			t.Error(err)
		}
		ctx.FlushWCB()
		ctx.InvalidateMPB()
		if err := ctx.ReadV(MPBAddr(5, 64), got); err != nil {
			t.Error(err)
		}
		// A fault is an error, not a crash.
		if err := ctx.ReadV(VAddr(0x55_000000), got); err == nil {
			t.Error("LUT fault not reported")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("ReadV = %q, want %q", got, msg)
	}
}

// The cores of a chip share one boot-time table: a remap on one core is
// its own, while a vSCC remote window lands on every core still sharing.
func TestLUTMapDoesNotLeakToSiblings(t *testing.T) {
	c := NewChip(sim.NewKernel(), 0, DefaultParams())
	a, b := c.Cores[0].LUT, c.Cores[1].LUT
	e := LUTEntry{Kind: LUTMPB, Dev: 0, Tile: 3}
	if err := a.Map(0x42, e); err != nil {
		t.Fatal(err)
	}
	if a.Entry(0x42) != e || b.Entry(0x42).Kind != LUTUnmapped {
		t.Fatalf("after core 0 maps page 0x42: core 0 %+v, core 1 %+v", a.Entry(0x42), b.Entry(0x42))
	}
	if b.Entry(MPBPage) != a.Entry(MPBPage) || b.Entry(MMIOPage).Kind != LUTHostMMIO {
		t.Error("core 0's copy lost the default pages")
	}
	if err := b.MapRemoteDevice(2); err != nil {
		t.Fatal(err)
	}
	if c.Cores[47].LUT.Entry(RemoteMPBPageBase+2).Dev != 2 {
		t.Error("remote window not visible on a sharing sibling")
	}
	if a.Entry(RemoteMPBPageBase+2).Kind != LUTUnmapped {
		t.Error("remote window leaked into a core with its own table")
	}
}
