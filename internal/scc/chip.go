// Package scc models the Intel Single-chip Cloud Computer: 48 P54C cores
// on 24 tiles connected by a 6x4 mesh, with per-tile local memory buffers
// (MPB + synchronization flags), MPBT L1 caching with bulk invalidation,
// and a write-combine buffer per core.
//
// The model is functional-with-timing: simulated cores run real Go code,
// and every memory operation moves real bytes while charging the core
// calibrated cycle costs. Cross-tile costs come from the mesh model in
// package noc; accesses to other devices or to host memory-mapped
// registers are delegated to an OffChipPort (implemented by package vscc).
package scc

import (
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/noc"
	"vscc/internal/sim"
)

const (
	// MeshWidth and MeshHeight are the SCC tile grid dimensions.
	MeshWidth  = 6
	MeshHeight = 4
	// NumTiles and NumCores per device.
	NumTiles = MeshWidth * MeshHeight
	NumCores = 2 * NumTiles
)

// SIFCoord is the tile holding the system interface — the single
// off-chip link, at mesh position (3,0) (paper §3).
var SIFCoord = noc.Coord{X: 3, Y: 0}

// Tile is one mesh node: two cores, a router, and 16 KB of local memory
// buffer shared by the two cores (8 KB each).
type Tile struct {
	Index int
	Coord noc.Coord
	LMB   *mem.LMB

	// changed wakes processes blocked on flag changes in this tile's LMB.
	changed *sim.Cond
}

// Core is one P54C core.
type Core struct {
	ID   int
	Tile *Tile
	L1   *mem.L1
	WCB  mem.WCB
	// LUT is the core's address lookup table (see lut.go), one per chip.
	LUT *LUT

	// fillGen shadows the L1 for the consistency checker: the line
	// generation this core last cached. Nil unless checking is enabled.
	fillGen map[uint64]uint64

	chip *Chip
}

// Chip is one SCC device.
type Chip struct {
	// Index is the device number — the z coordinate in the vSCC topology.
	Index  int
	Kernel *sim.Kernel
	Mesh   *noc.Mesh
	Params Params
	Tiles  []*Tile
	Cores  []*Core

	// OffChip handles accesses to other devices and to host MMIO. Nil
	// means a standalone chip; off-chip access panics.
	OffChip OffChipPort

	// alive tracks core availability; the SCC research system frequently
	// boots with silent core failures (paper §4).
	alive []bool

	// power holds the frequency/voltage island state.
	power *powerState

	// check is the runtime MPB consistency oracle (check.go); nil when
	// checking is disabled.
	check *Checker

	// hostDrop, when set, may swallow a host-side store before it lands —
	// the fault-injection hook for lost remote flag writes. It returns
	// true to drop the store. Nil means every store lands.
	hostDrop func(tile, off, n int) bool

	// lifecycle, when set, gates every core memory operation on device
	// membership: while the device is down (gate closed) its cores park
	// at their next operation and resume when the device rejoins. Nil —
	// no device-fault schedule — costs one predictable-branch nil check.
	lifecycle *sim.Gate

	// writeObs, when set, observes every store into on-chip memory —
	// the checkpoint log's feed. It must not touch simulated time.
	writeObs func(tile, off int, data []byte)
}

// NewChip builds device index with the given timing parameters.
func NewChip(k *sim.Kernel, index int, params Params) *Chip {
	c := &Chip{
		Index:  index,
		Kernel: k,
		Mesh:   noc.New(MeshWidth, MeshHeight, noc.DefaultParams()),
		Params: params,
		alive:  make([]bool, NumCores),
		power:  newPowerState(),
	}
	for t := 0; t < NumTiles; t++ {
		tile := &Tile{
			Index:   t,
			Coord:   TileCoord(t),
			LMB:     mem.NewLMB(mem.LMBSize),
			changed: sim.NewCond(k, fmt.Sprintf("dev%d.tile%d.lmb", index, t)),
		}
		c.Tiles = append(c.Tiles, tile)
	}
	lut := DefaultLUT(index)
	for id := 0; id < NumCores; id++ {
		c.Cores = append(c.Cores, &Core{
			ID:   id,
			Tile: c.Tiles[CoreTile(id)],
			L1:   mem.NewL1(params.L1MPBTLines),
			LUT:  lut,
			chip: c,
		})
		c.alive[id] = true
	}
	return c
}

// TileCoord maps a tile index to its mesh coordinate (row-major).
func TileCoord(tile int) noc.Coord {
	return noc.Coord{X: tile % MeshWidth, Y: tile / MeshWidth}
}

// CoreTile maps a core id to its tile index; two consecutive core ids
// share a tile.
func CoreTile(core int) int { return core / 2 }

// CoreCoord maps a core id to its tile's mesh coordinate.
func CoreCoord(core int) noc.Coord { return TileCoord(CoreTile(core)) }

// CoreLMBOffset returns the byte offset of a core's 8 KB share within its
// tile's 16 KB LMB: even core ids own the lower half.
func CoreLMBOffset(core int) int {
	if core%2 == 0 {
		return 0
	}
	return mem.CoreLMBSize
}

// SetAlive marks a core as available or failed.
func (c *Chip) SetAlive(core int, alive bool) { c.alive[core] = alive }

// Alive reports whether a core booted successfully.
func (c *Chip) Alive(core int) bool { return c.alive[core] }

// AliveCores returns the ids of all available cores in ascending order.
func (c *Chip) AliveCores() []int {
	var out []int
	for id, a := range c.alive {
		if a {
			out = append(out, id)
		}
	}
	return out
}

// Launch starts a program on a core as a simulated process. It panics if
// the core failed at boot.
func (c *Chip) Launch(core int, name string, body func(*Ctx)) *sim.Proc {
	if core < 0 || core >= NumCores {
		panic(fmt.Sprintf("scc: launch on invalid core %d", core))
	}
	if !c.alive[core] {
		panic(fmt.Sprintf("scc: launch on failed core %d of device %d", core, c.Index))
	}
	co := c.Cores[core]
	return c.Kernel.Spawn(name, func(p *sim.Proc) {
		body(&Ctx{Core: co, Proc: p})
	})
}

// writeLMB writes bytes into a tile's LMB and wakes flag waiters. All
// stores into on-chip memory — from cores, the host DMA engine, or the
// communication task — must land through this method so that simulated
// spin loops observe them.
func (c *Chip) writeLMB(tile, off int, data []byte) {
	t := c.Tiles[tile]
	t.LMB.Write(off, data)
	if c.writeObs != nil {
		c.writeObs(tile, off, data)
	}
	if c.check != nil {
		c.check.bumpRange(c.Index, tile, off, len(data))
	}
	t.changed.Broadcast()
}

// readLMB reads bytes from a tile's LMB.
func (c *Chip) readLMB(tile, off int, buf []byte) {
	c.Tiles[tile].LMB.Read(off, buf)
}

// HostWriteLMB is the entry point for host-side agents (communication
// task, vDMA engine) to deposit data in on-chip memory. The caller
// accounts for transport timing; the store itself is instantaneous.
func (c *Chip) HostWriteLMB(tile, off int, data []byte) {
	if c.hostDrop != nil && c.hostDrop(tile, off, len(data)) {
		return
	}
	c.writeLMB(tile, off, data)
}

// SetHostWriteDropper installs the fault-injection hook consulted before
// every host-side store (see HostWriteLMB). vscc wires it to the fault
// injector; tests may install their own.
func (c *Chip) SetHostWriteDropper(fn func(tile, off, n int) bool) { c.hostDrop = fn }

// HostReadLMB is the host-side read counterpart.
func (c *Chip) HostReadLMB(tile, off int, buf []byte) { c.readLMB(tile, off, buf) }

// SetLifecycleGate installs the membership gate every core memory
// operation blocks on while the device is down (see vscc.Membership).
func (c *Chip) SetLifecycleGate(g *sim.Gate) { c.lifecycle = g }

// SetWriteObserver installs the store observer feeding the checkpoint
// log. Wipe/restore bypass it: reconstruction is not a store to record.
func (c *Chip) SetWriteObserver(fn func(tile, off int, data []byte)) { c.writeObs = fn }

// barrier parks p while the device is down. Cores freeze at their next
// memory operation when the chip crashes and thaw on rejoin — the
// process-level model of "the core image is part of the checkpoint".
func (c *Chip) barrier(p *sim.Proc) {
	if c.lifecycle != nil {
		c.lifecycle.Wait(p)
	}
}

// ViewLMB appends to dst[:0] every tile's live LMB image, uncopied (see
// mem.LMB.View); a reader that keeps an image, like the checkpoint log,
// copies it.
func (c *Chip) ViewLMB(dst [][]byte) [][]byte {
	dst = dst[:0]
	for _, t := range c.Tiles {
		dst = append(dst, t.LMB.View())
	}
	return dst
}

// LoadLMB overwrites every tile's LMB with a restored image, a nil bank
// reading as zeros (an untouched LMB stays unallocated), bypassing the
// write observer (restoration is not new traffic) but waking flag
// waiters and bumping the consistency oracle like any other store.
func (c *Chip) LoadLMB(img [][]byte) {
	for i, t := range c.Tiles {
		if i >= len(img) {
			continue
		}
		n := len(img[i])
		if img[i] == nil {
			t.LMB.Zero()
			n = t.LMB.Size()
		} else {
			t.LMB.Write(0, img[i])
		}
		if c.check != nil {
			c.check.bumpRange(c.Index, i, 0, n)
		}
		t.changed.Broadcast()
	}
}

// WipeLMB zeroes every tile's LMB — the crash: on-chip memory contents
// are lost the instant the device goes down.
func (c *Chip) WipeLMB() {
	for i, t := range c.Tiles {
		t.LMB.Zero()
		if c.check != nil {
			c.check.bumpRange(c.Index, i, 0, t.LMB.Size())
		}
		t.changed.Broadcast()
	}
}

// lineKey builds the global cache-line key for (device, tile, line).
func lineKey(dev, tile, off int) uint64 {
	return uint64(dev)<<40 | uint64(tile)<<20 | uint64(off/mem.LineSize)
}

// mmioKey builds a WCB key for a host MMIO line; MMIO lines live in a
// separate key space so they never alias MPB lines.
func mmioKey(dev, off int) uint64 {
	return 1<<60 | uint64(dev)<<40 | uint64(off/mem.LineSize)
}
