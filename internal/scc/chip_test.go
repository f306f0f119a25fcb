package scc

import (
	"bytes"
	"testing"
	"testing/quick"

	"vscc/internal/noc"
	"vscc/internal/sim"
)

func newTestChip(k *sim.Kernel) *Chip { return NewChip(k, 0, DefaultParams()) }

func TestTopologyConstants(t *testing.T) {
	if NumTiles != 24 || NumCores != 48 {
		t.Fatalf("tiles=%d cores=%d, want 24/48", NumTiles, NumCores)
	}
	if SIFCoord != (noc.Coord{X: 3, Y: 0}) {
		t.Errorf("SIF at %v, want (3,0) (paper §3)", SIFCoord)
	}
}

func TestCoreTileMapping(t *testing.T) {
	for core := 0; core < NumCores; core++ {
		tile := CoreTile(core)
		if tile != core/2 {
			t.Fatalf("CoreTile(%d) = %d", core, tile)
		}
		coord := CoreCoord(core)
		if coord != TileCoord(tile) {
			t.Fatalf("CoreCoord(%d) = %v, want %v", core, coord, TileCoord(tile))
		}
	}
	// Two cores of a tile split the LMB.
	if CoreLMBOffset(0) != 0 || CoreLMBOffset(1) != 8192 {
		t.Error("LMB split wrong for tile 0")
	}
}

func TestTileCoordRowMajor(t *testing.T) {
	if TileCoord(0) != (noc.Coord{X: 0, Y: 0}) || TileCoord(5) != (noc.Coord{X: 5, Y: 0}) || TileCoord(6) != (noc.Coord{X: 0, Y: 1}) || TileCoord(23) != (noc.Coord{X: 5, Y: 3}) {
		t.Error("tile coordinates not row-major over 6x4")
	}
}

func TestLocalMPBWriteRead(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	msg := []byte("on-chip message, longer than one cache line to span several")
	got := make([]byte, len(msg))
	c.Launch(0, "writer-reader", func(ctx *Ctx) {
		ctx.WriteMPB(0, 0, 64, msg)
		ctx.FlushWCB()
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 0, 64, got)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q, want %q", got, msg)
	}
}

func TestCrossTileTransferWithFlagHandshake(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	msg := []byte("cross-tile payload 0123456789abcdef0123456789abcdef")
	got := make([]byte, len(msg))
	const flagOff = 8000
	// Core 47 (tile 23) writes into its own MPB, then raises a flag in
	// core 0's (tile 0) flag area; core 0 remote-gets the data.
	c.Launch(47, "sender", func(ctx *Ctx) {
		ctx.WriteMPB(0, 23, 0, msg)
		ctx.FlushWCB()
		ctx.WriteMPB(0, 0, flagOff, []byte{1})
		ctx.FlushWCB()
	})
	c.Launch(0, "receiver", func(ctx *Ctx) {
		ctx.WaitFlag(0, flagOff, func(b byte) bool { return b == 1 })
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 23, 0, got)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("receiver read %q, want %q", got, msg)
	}
}

func TestStaleReadWithoutInvalidate(t *testing.T) {
	// The defining hazard of the non-coherent SCC: re-reading an MPB
	// location without CL1INVMB returns the stale cached line.
	k := sim.NewKernel()
	c := newTestChip(k)
	var first, second, third byte
	c.Launch(0, "reader", func(ctx *Ctx) {
		var b [1]byte
		ctx.ReadMPB(0, 5, 0, b[:]) // cache the line (value 0)
		first = b[0]
		// Wait for the writer using the flag path, which invalidates —
		// then re-read WITHOUT invalidating: data line still stale.
		ctx.Delay(10000)
		ctx.ReadMPB(0, 5, 0, b[:])
		second = b[0]
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 5, 0, b[:])
		third = b[0]
	})
	c.Launch(11, "writer", func(ctx *Ctx) { // any core can write tile 5
		ctx.Delay(5000) // after the reader's first (caching) read
		ctx.WriteMPB(0, 5, 0, []byte{0xEE})
		ctx.FlushWCB()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("first read = %#x, want 0", first)
	}
	if second != 0 {
		t.Errorf("second read = %#x, want stale 0 — L1 must serve the old line", second)
	}
	if third != 0xEE {
		t.Errorf("third read = %#x, want 0xEE after invalidate", third)
	}
}

func TestWaitFlagDoesNotBusyBurn(t *testing.T) {
	// WaitFlag must block rather than consume unbounded events while the
	// flag is unset.
	k := sim.NewKernel()
	c := newTestChip(k)
	var wakeTime sim.Cycles
	c.Launch(0, "waiter", func(ctx *Ctx) {
		ctx.WaitFlag(0, 100, func(b byte) bool { return b != 0 })
		wakeTime = ctx.Now()
	})
	c.Launch(2, "setter", func(ctx *Ctx) {
		ctx.Delay(1_000_000)
		ctx.WriteMPB(0, 0, 100, []byte{7})
		ctx.FlushWCB()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime < 1_000_000 {
		t.Errorf("waiter woke at %d, before the flag was set", wakeTime)
	}
	if wakeTime > 1_001_000 {
		t.Errorf("waiter woke at %d, too long after the set at 1e6", wakeTime)
	}
}

func TestRemoteReadCostsMoreThanLocal(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	var localCost, remoteCost sim.Cycles
	c.Launch(0, "p", func(ctx *Ctx) {
		buf := make([]byte, 32)
		t0 := ctx.Now()
		ctx.ReadMPB(0, 0, 0, buf) // own tile
		localCost = ctx.Now() - t0
		ctx.InvalidateMPB()
		t0 = ctx.Now()
		ctx.ReadMPB(0, 23, 0, buf) // opposite corner
		remoteCost = ctx.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if remoteCost <= localCost {
		t.Errorf("remote read (%d) should cost more than local (%d)", remoteCost, localCost)
	}
}

func TestL1HitFasterThanMiss(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	var missCost, hitCost sim.Cycles
	c.Launch(0, "p", func(ctx *Ctx) {
		buf := make([]byte, 32)
		t0 := ctx.Now()
		ctx.ReadMPB(0, 10, 0, buf)
		missCost = ctx.Now() - t0
		t0 = ctx.Now()
		ctx.ReadMPB(0, 10, 0, buf)
		hitCost = ctx.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if hitCost >= missCost {
		t.Errorf("hit (%d) should be cheaper than miss (%d)", hitCost, missCost)
	}
}

func TestComputeFlops(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	var elapsed sim.Cycles
	c.Launch(0, "p", func(ctx *Ctx) {
		t0 := ctx.Now()
		ctx.ComputeFlops(533e6) // one second of peak FP
		elapsed = ctx.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 533_000_000 {
		t.Errorf("533e6 flops took %d cycles, want 533e6 at 1 flop/cycle", elapsed)
	}
}

func TestOffChipWithoutPortPanics(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	c.Launch(0, "p", func(ctx *Ctx) {
		buf := make([]byte, 32)
		ctx.ReadMPB(1, 0, 0, buf) // device 1 does not exist
	})
	if err := k.Run(); err == nil {
		t.Fatal("off-chip access without port should fail the run")
	}
}

func TestMBPerSecond(t *testing.T) {
	p := DefaultParams()
	// 150 MB/s = 150e6 bytes over one second (533e6 cycles).
	got := p.MBPerSecond(150e6, 533_000_000)
	if got < 149.9 || got > 150.1 {
		t.Errorf("MBPerSecond = %v, want 150", got)
	}
	if p.MBPerSecond(1, 0) != 0 {
		t.Error("zero cycles should yield 0")
	}
}

func TestGFlops(t *testing.T) {
	p := DefaultParams()
	got := p.GFlops(533e6, 533_000_000) // peak: 0.533 GFLOP/s
	if got < 0.5329 || got > 0.5331 {
		t.Errorf("GFlops = %v, want 0.533", got)
	}
}

// Property: WriteMPB/ReadMPB round-trips arbitrary payloads at arbitrary
// offsets (within a core's 8 KB half).
func TestPropertyMPBRoundTrip(t *testing.T) {
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		o := int(off) % (8192 - len(payload))
		k := sim.NewKernel()
		c := newTestChip(k)
		got := make([]byte, len(payload))
		c.Launch(0, "p", func(ctx *Ctx) {
			ctx.WriteMPB(0, 0, o, payload)
			ctx.FlushWCB()
			ctx.InvalidateMPB()
			ctx.ReadMPB(0, 0, o, got)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the simulation is deterministic — identical runs produce
// identical final clocks.
func TestPropertyDeterministicTiming(t *testing.T) {
	run := func() sim.Cycles {
		k := sim.NewKernel()
		c := newTestChip(k)
		for i := 0; i < 8; i++ {
			i := i
			c.Launch(i, "p", func(ctx *Ctx) {
				buf := make([]byte, 256)
				for r := 0; r < 5; r++ {
					ctx.WriteMPB(0, CoreTile(i), CoreLMBOffset(i), buf)
					ctx.FlushWCB()
					ctx.InvalidateMPB()
					ctx.ReadMPB(0, CoreTile((i+1)%8), 0, buf)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %d, first at %d — nondeterministic", i, got, first)
		}
	}
}

// echoPort is an off-chip port that answers every read with a line of
// 0x5A and swallows every write, without allocating.
type echoPort struct{ writes int }

func (e *echoPort) ReadLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, buf []byte) {
	for i := range buf {
		buf[i] = 0x5A
	}
}

func (e *echoPort) WriteLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, data []byte, mask uint32) {
	e.writes++
}

func (e *echoPort) MMIOWriteLine(p *sim.Proc, srcDev, srcCore, hostDev, off int, data []byte, mask uint32) {
	e.writes++
}

// A warm core reads and writes MPB lines, on-chip and across the
// off-chip port, with cache misses and write-combine drains, without
// allocating: the fetch line, the cached lines and the drained line are
// all storage the core already owns.
func TestMPBLineOpsAllocateNothing(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	port := &echoPort{}
	c.OffChip = port
	var allocs float64
	buf := make([]byte, 3*32)
	data := []byte("forty bytes of payload for two lines....")
	c.Launch(0, "warm", func(ctx *Ctx) {
		round := func() {
			ctx.InvalidateMPB()
			ctx.ReadMPB(1, 3, 0, buf)
			ctx.ReadMPB(0, 3, 0, buf)
			ctx.ReadMPB(0, 3, 0, buf) // L1 hits
			ctx.WriteMPB(1, 3, 0, data)
			ctx.WriteMPB(0, 3, 64, data)
			ctx.FlushWCB()
		}
		round()
		allocs = testing.AllocsPerRun(50, round)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm ReadMPB/WriteMPB round allocates %v times, want 0", allocs)
	}
	if port.writes == 0 {
		t.Error("no write crossed the off-chip port")
	}
}

// An untouched tile reads as zeros, and survives snapshot, wipe and
// restore byte-equal next to a written one — before and after either
// is given storage.
func TestUntouchedTileSnapshotWipeRestore(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	c.HostWriteLMB(5, 100, []byte("written"))
	got := make([]byte, 64)
	c.HostReadLMB(6, 0, got)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("untouched tile reads %v, want zeros", got)
	}
	views := c.ViewLMB(nil)
	img := make([][]byte, len(views))
	for i := range img {
		if img[i] = bytes.Clone(views[i]); len(img[i]) != c.Tiles[i].LMB.Size() {
			t.Fatalf("tile %d: image of %d bytes, want %d", i, len(img[i]), c.Tiles[i].LMB.Size())
		}
	}
	c.WipeLMB()
	for i, v := range c.ViewLMB(views) {
		if !bytes.Equal(v, make([]byte, len(v))) {
			t.Fatalf("tile %d not zero after wipe", i)
		}
	}
	c.LoadLMB(img)
	for i, v := range c.ViewLMB(views) {
		if !bytes.Equal(v, img[i]) {
			t.Fatalf("tile %d: restored image differs from the snapshot", i)
		}
	}
	c.HostReadLMB(5, 100, got[:7])
	if string(got[:7]) != "written" {
		t.Errorf("restored tile 5 reads %q", got[:7])
	}
}

// A timed wait for an LMB store, woken or expired, allocates nothing once
// the core has waited once: its deadline token is reused.
func TestWaitLMBChangeForAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	c := newTestChip(k)
	var allocs float64
	woke, expired, done := 0, 0, false
	c.Launch(0, "waiter", func(ctx *Ctx) {
		round := func() {
			if ctx.WaitLMBChangeFor(0, 50) {
				woke++
			} else {
				expired++
			}
		}
		round()
		allocs = testing.AllocsPerRun(200, round)
		done = true
	})
	flag := []byte{7}
	c.Launch(2, "writer", func(ctx *Ctx) {
		for !done {
			ctx.Delay(70)
			ctx.WriteMPB(0, 0, 100, flag)
			ctx.FlushWCB()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke == 0 || expired == 0 {
		t.Fatalf("%d woken and %d expired waits, want both", woke, expired)
	}
	if allocs != 0 {
		t.Errorf("a WaitLMBChangeFor round allocates %v times, want 0", allocs)
	}
}
