package scc

import (
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/sim"
)

// Ctx binds a core to the simulated process executing on it and exposes
// the core's instruction-level view of the memory system. All methods
// charge calibrated cycle costs and move real bytes. Methods must only be
// called from the process that Launch created.
type Ctx struct {
	Core *Core
	Proc *sim.Proc

	// line is ReadMPB's fetch buffer, lent to the off-chip port.
	line [mem.LineSize]byte
}

// chip returns the owning device.
func (c *Ctx) chip() *Chip { return c.Core.chip }

// Params returns the chip's timing parameters.
func (c *Ctx) Params() Params { return c.chip().Params }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Cycles { return c.Proc.Now() }

// Delay advances simulated time — generic instruction work, expressed
// at the 533 MHz reference clock and scaled to the tile's current
// frequency island setting.
func (c *Ctx) Delay(d sim.Cycles) { c.delayCore(d) }

// delayCore charges core-clocked work, scaled by the tile's frequency
// divider (power management).
func (c *Ctx) delayCore(d sim.Cycles) {
	c.Proc.Delay(c.chip().scaleCost(CoreTile(c.Core.ID), d))
}

// ComputeFlops charges the time to execute n floating-point operations at
// the core's peak rate.
func (c *Ctx) ComputeFlops(n float64) {
	p := c.chip().Params
	c.delayCore(sim.Cycles(n / p.FlopsPerCycle))
}

// CopyPrivate charges the P54C load/store cost of moving n bytes through
// registers on the private-memory side of a copy loop.
func (c *Ctx) CopyPrivate(n int) {
	p := c.chip().Params
	lines := sim.Cycles((n + mem.LineSize - 1) / mem.LineSize)
	c.delayCore(lines * p.PrivateCopyCyclesPerLine)
}

// InvalidateMPB executes CL1INVMB: all MPBT lines leave the L1 in one
// instruction.
func (c *Ctx) InvalidateMPB() {
	c.invalidateL1()
	c.delayCore(c.chip().Params.InvalidateCycles)
}

// invalidateL1 drops all MPBT lines and resets the consistency checker's
// shadow of what this core has cached.
func (c *Ctx) invalidateL1() {
	c.Core.L1.InvalidateAll()
	if c.chip().check != nil {
		clear(c.Core.fillGen)
	}
}

// ReadMPB reads len(buf) bytes of MPB memory at (dev, tile, off) through
// the MPBT L1: cached lines are served from L1 — including stale copies,
// exactly as on hardware — and misses fetch through the mesh or, for a
// foreign device, through the off-chip port.
func (c *Ctx) ReadMPB(dev, tile, off int, buf []byte) {
	chip := c.chip()
	chip.barrier(c.Proc)
	p := chip.Params
	n := 0
	for n < len(buf) {
		lineBase := (off + n) &^ (mem.LineSize - 1)
		lineOff := off + n - lineBase
		chunk := mem.LineSize - lineOff
		if rem := len(buf) - n; chunk > rem {
			chunk = rem
		}
		key := lineKey(dev, tile, lineBase)
		if chip.check != nil {
			c.checkPendingRead(dev, tile, lineBase, key)
		}
		if cached, ok := c.Core.L1.Lookup(key); ok {
			if chip.check != nil {
				c.checkCachedRead(chip.check, dev, tile, lineBase, key)
			}
			copy(buf[n:n+chunk], cached[lineOff:])
			c.delayCore(p.L1HitCycles)
			n += chunk
			continue
		}
		line := c.line[:]
		if dev == chip.Index {
			cost := p.LocalMPBReadCycles
			if hops := chip.Mesh.Hops(c.Core.Tile.Coord, TileCoord(tile)); hops > 0 {
				cost = p.RemoteReadBaseCycles + sim.Cycles(hops)*p.PerHopCycles
			}
			c.Proc.Delay(cost)
			chip.readLMB(tile, lineBase, line)
		} else {
			chip.offChip().ReadLine(c.Proc, chip.Index, c.Core.ID, dev, tile, lineBase, line)
		}
		c.Core.L1.Fill(key, c.line)
		if ck := chip.check; ck != nil {
			c.Core.fillGen[key] = ck.gen(key)
		}
		copy(buf[n:n+chunk], line[lineOff:lineOff+chunk])
		n += chunk
	}
}

// WriteMPB writes data to MPB memory at (dev, tile, off) through the
// write-combine buffer. Stores are posted: the core is charged the drain
// cost, not a mesh round trip. Call FlushWCB before signalling a peer.
func (c *Ctx) WriteMPB(dev, tile, off int, data []byte) {
	c.chip().barrier(c.Proc)
	n := 0
	for n < len(data) {
		lineBase := (off + n) &^ (mem.LineSize - 1)
		lineOff := off + n - lineBase
		chunk := mem.LineSize - lineOff
		if rem := len(data) - n; chunk > rem {
			chunk = rem
		}
		key := lineKey(dev, tile, lineBase)
		if drained := c.Core.WCB.Write(key, lineOff, data[n:n+chunk]); drained != nil {
			c.drain(drained)
		}
		c.Proc.Delay(1) // store issue
		n += chunk
	}
}

// FlushWCB drains any pending write-combine line.
func (c *Ctx) FlushWCB() {
	c.chip().barrier(c.Proc)
	if drained := c.Core.WCB.Flush(); drained != nil {
		c.drain(drained)
	}
}

// drain delivers one WCB line to its destination, charging posted-write
// cost.
func (c *Ctx) drain(pd *mem.Pending) {
	chip := c.chip()
	p := chip.Params
	if pd.Key&(1<<60) != 0 { // MMIO line
		dev := int(pd.Key >> 40 & 0xFFFFF)
		off := int(pd.Key&0xFFFFF) * mem.LineSize
		chip.offChip().MMIOWriteLine(c.Proc, chip.Index, c.Core.ID, dev, off, pd.Data[:], pd.Mask)
		return
	}
	dev := int(pd.Key >> 40)
	tile := int(pd.Key >> 20 & 0xFFFFF)
	lineBase := int(pd.Key&0xFFFFF) * mem.LineSize
	// Write-through: update our own cached copy if resident. A full line
	// is one run: one update, one store, one wake-up.
	for lo, hi := mem.NextRun(pd.Mask, 0, mem.LineSize); lo < hi; lo, hi = mem.NextRun(pd.Mask, hi, mem.LineSize) {
		c.Core.L1.UpdateIfPresent(pd.Key, lo, pd.Data[lo:hi])
	}
	if dev == chip.Index {
		cost := p.LocalMPBWriteCycles
		if hops := chip.Mesh.Hops(c.Core.Tile.Coord, TileCoord(tile)); hops > 0 {
			cost = p.RemoteWriteBaseCycles + sim.Cycles(hops)*p.PerHopCycles
		}
		c.Proc.Delay(cost)
		for lo, hi := mem.NextRun(pd.Mask, 0, mem.LineSize); lo < hi; lo, hi = mem.NextRun(pd.Mask, hi, mem.LineSize) {
			chip.writeLMB(tile, lineBase+lo, pd.Data[lo:hi])
		}
		if ck := chip.check; ck != nil {
			// The write-through L1 update above keeps this core's cached
			// copy current with its own store (disjoint-writer rule).
			c.Core.fillGen[pd.Key] = ck.gen(pd.Key)
		}
		return
	}
	chip.offChip().WriteLine(c.Proc, chip.Index, c.Core.ID, dev, tile, lineBase, pd.Data[:], pd.Mask)
}

// MMIOWrite stores to a host memory-mapped register through the WCB, so
// that contiguous registers within one 32 B line fuse into a single
// off-chip transaction (the paper's vDMA programming trick).
func (c *Ctx) MMIOWrite(hostDev, off int, data []byte) {
	c.chip().barrier(c.Proc)
	n := 0
	for n < len(data) {
		lineBase := (off + n) &^ (mem.LineSize - 1)
		lineOff := off + n - lineBase
		chunk := mem.LineSize - lineOff
		if rem := len(data) - n; chunk > rem {
			chunk = rem
		}
		key := mmioKey(hostDev, lineBase)
		if drained := c.Core.WCB.Write(key, lineOff, data[n:n+chunk]); drained != nil {
			c.drain(drained)
		}
		c.Proc.Delay(1)
		n += chunk
	}
}

// MMIORead reads a host register — uncached, blocking for the full
// off-chip round trip.
func (c *Ctx) MMIORead(hostDev, off int, buf []byte) {
	c.chip().barrier(c.Proc)
	c.chip().offChip().MMIORead(c.Proc, c.chip().Index, c.Core.ID, hostDev, off, buf)
}

// WaitFlag blocks until pred is satisfied by the flag byte at (tile, off)
// in this device's on-chip memory, spinning with invalidate+reload
// semantics. RCCE spins exclusively on local flags (paper §3.1 footnote),
// so cross-device flag waiting is rejected.
func (c *Ctx) WaitFlag(tile, off int, pred func(byte) bool) byte {
	b, _ := c.WaitFlagFor(tile, off, pred, 0)
	return b
}

// WaitFlagFor is WaitFlag with a cycle budget: it gives up once budget
// cycles elapse without pred being satisfied, reporting ok=false. A zero
// budget waits forever. On timeout the flag is re-read coherently one
// last time, so a satisfaction that raced the deadline still wins.
func (c *Ctx) WaitFlagFor(tile, off int, pred func(byte) bool, budget sim.Cycles) (flag byte, ok bool) {
	chip := c.chip()
	t := chip.Tiles[tile]
	var to *sim.Timeout
	if budget > 0 {
		to = t.changed.ArmTimeout(budget)
		defer to.Cancel()
	}
	var b [1]byte
	for {
		// Each poll iteration first parks on the lifecycle barrier: a
		// spinning core must not observe the wiped or half-restored
		// memory of a crashed device, it freezes with the device and
		// resumes its poll after the rejoin restores the flag bytes.
		chip.barrier(c.Proc)
		// Each poll iteration invalidates MPBT state and reloads the
		// flag, as RCCE's flag loop does.
		c.invalidateL1()
		c.delayCore(chip.Params.FlagPollCycles)
		chip.readLMB(tile, off, b[:])
		if pred(b[0]) {
			return b[0], true
		}
		if !t.changed.WaitOrTimeout(c.Proc, to) {
			chip.barrier(c.Proc)
			c.invalidateL1()
			c.delayCore(chip.Params.FlagPollCycles)
			chip.readLMB(tile, off, b[:])
			return b[0], pred(b[0])
		}
	}
}

// PeekLMB reads a byte of this device's on-chip memory without yielding
// or charging cycles. It exists for runtime-internal gating decisions
// (non-blocking request progress engines) that must be atomic with a
// subsequent WaitLMBChangeFor; protocol data paths must use ReadMPB or
// WaitFlag, which model real costs.
func (c *Ctx) PeekLMB(tile, off int) byte {
	var b [1]byte
	c.chip().readLMB(tile, off, b[:])
	return b[0]
}

// WaitLMBChangeFor blocks until any store lands in the given tile's LMB,
// reporting false once budget cycles pass with none (a zero budget waits
// forever). No simulated time passes between the store and the wakeup;
// combine with PeekLMB to build race-free wait loops.
func (c *Ctx) WaitLMBChangeFor(tile int, budget sim.Cycles) bool {
	c.chip().barrier(c.Proc)
	ch := c.chip().Tiles[tile].changed
	if budget == 0 {
		ch.Wait(c.Proc)
		return true
	}
	to := ch.ArmTimeout(budget)
	ok := ch.WaitOrTimeout(c.Proc, to)
	to.Cancel()
	return ok
}

// offChip returns the device's off-chip port, panicking for a standalone
// chip.
func (c *Chip) offChip() OffChipPort {
	if c.OffChip == nil {
		panic(fmt.Sprintf("scc: device %d has no off-chip port", c.Index))
	}
	return c.OffChip
}
