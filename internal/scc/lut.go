package scc

import "fmt"

// The SCC core addresses memory through a per-core lookup table (LUT) of
// 256 entries, each mapping one 16 MB page of the core's 32-bit physical
// address space to a system-wide destination. The paper's §2.1 notes
// that extending RCCE to vSCC needed only "minor modifications to the
// hardware abstraction layer ... such as a mapping of remote on-chip
// memory" — i.e., LUT entries pointing at other devices' MPBs. This file
// models that translation layer; the gory address API on Ctx resolves
// virtual addresses through it.
const (
	// LUTEntries is the number of pages per core.
	LUTEntries = 256
	// LUTPageBytes is the page granularity (16 MB).
	LUTPageBytes = 16 << 20
)

// LUTTargetKind classifies what a LUT entry points at.
type LUTTargetKind int

// LUT entry kinds.
const (
	// LUTUnmapped entries fault on access.
	LUTUnmapped LUTTargetKind = iota
	// LUTPrivate is the core's private DRAM (not modelled beyond cost).
	LUTPrivate
	// LUTMPB points into the on-chip memory of some (device, tile).
	LUTMPB
	// LUTHostMMIO points into the host communication task's register
	// window.
	LUTHostMMIO
)

// LUTEntry is one page mapping.
type LUTEntry struct {
	Kind LUTTargetKind
	// Dev/Tile/Off locate the page base for LUTMPB; Dev/Off for
	// LUTHostMMIO.
	Dev, Tile, Off int
}

// LUT is a core's address translation table. The cores of a device
// share one: the boot-time map and the vSCC remote windows are the same
// on every core.
type LUT struct {
	entries [LUTEntries]LUTEntry
}

// VAddr is a 32-bit core-local virtual address.
type VAddr uint32

// Page returns the LUT index of an address.
func (a VAddr) Page() int { return int(a >> 24) }

// PageOff returns the offset within the page.
func (a VAddr) PageOff() int { return int(a & (LUTPageBytes - 1)) }

// Resolve translates a virtual address to its target, faulting (error)
// on unmapped pages.
func (l *LUT) Resolve(a VAddr) (LUTEntry, int, error) {
	e := l.entries[a.Page()]
	if e.Kind == LUTUnmapped {
		return LUTEntry{}, 0, fmt.Errorf("scc: LUT fault at %#x (page %d unmapped)", uint32(a), a.Page())
	}
	return e, e.Off + a.PageOff(), nil
}

// DefaultLUT builds the boot-time table of core id on device dev: page 0
// private memory, page 0xC0 the own-device MPB window (one page covers
// all 24 tiles' LMBs consecutively), page 0xF9 the host MMIO window —
// a simplified rendition of sccKit's default map.
func DefaultLUT(dev int) *LUT {
	l := &LUT{}
	l.entries[0] = LUTEntry{Kind: LUTPrivate, Dev: dev}
	l.entries[MPBPage] = LUTEntry{Kind: LUTMPB, Dev: dev, Tile: 0, Off: 0}
	l.entries[MMIOPage] = LUTEntry{Kind: LUTHostMMIO, Dev: dev, Off: 0}
	return l
}

// Well-known pages of the default map.
const (
	// MPBPage is the own-device MPB window (0xC0 on sccKit).
	MPBPage = 0xC0
	// MMIOPage is the host register window.
	MMIOPage = 0xF9
	// RemoteMPBPageBase is where vSCC maps other devices' MPB windows:
	// device d lands at page RemoteMPBPageBase+d (the paper's HAL
	// extension).
	RemoteMPBPageBase = 0xD0
)

// MapRemoteDevice installs the vSCC extension mapping for device d's MPB
// window, for every core sharing the table.
func (l *LUT) MapRemoteDevice(d int) error {
	page := RemoteMPBPageBase + d
	if page >= LUTEntries {
		return fmt.Errorf("scc: LUT page %d out of range", page)
	}
	l.entries[page] = LUTEntry{Kind: LUTMPB, Dev: d, Tile: 0, Off: 0}
	return nil
}

// MPBAddr builds the virtual address of (tile, off) in the own-device
// MPB window.
func MPBAddr(tile, off int) VAddr {
	return VAddr(MPBPage)<<24 | VAddr(tile*16384+off)
}

// RemoteMPBAddr builds the virtual address of (tile, off) on device d
// through the vSCC window.
func RemoteMPBAddr(d, tile, off int) VAddr {
	return VAddr(RemoteMPBPageBase+d)<<24 | VAddr(tile*16384+off)
}

// mpbTarget converts a resolved LUT entry + offset into (dev, tile,
// tileOff), splitting the flat MPB window into per-tile LMBs.
func mpbTarget(e LUTEntry, off int) (dev, tile, tileOff int, err error) {
	tile = e.Tile + off/16384
	tileOff = off % 16384
	if tile >= NumTiles {
		return 0, 0, 0, fmt.Errorf("scc: MPB window offset %d beyond the chip", off)
	}
	return e.Dev, tile, tileOff, nil
}

// ReadV reads through the core's LUT: the virtual-address flavour of
// ReadMPB (and MMIORead for host pages).
func (c *Ctx) ReadV(a VAddr, buf []byte) error {
	e, off, err := c.Core.LUT.Resolve(a)
	if err != nil {
		return err
	}
	switch e.Kind {
	case LUTMPB:
		dev, tile, tileOff, err := mpbTarget(e, off)
		if err != nil {
			return err
		}
		c.ReadMPB(dev, tile, tileOff, buf)
		return nil
	case LUTHostMMIO:
		c.MMIORead(e.Dev, off, buf)
		return nil
	case LUTPrivate:
		c.CopyPrivate(len(buf))
		return nil
	}
	return fmt.Errorf("scc: ReadV through unmapped page")
}

// WriteV writes through the core's LUT: the virtual-address flavour of
// WriteMPB / MMIOWrite.
func (c *Ctx) WriteV(a VAddr, data []byte) error {
	e, off, err := c.Core.LUT.Resolve(a)
	if err != nil {
		return err
	}
	switch e.Kind {
	case LUTMPB:
		dev, tile, tileOff, err := mpbTarget(e, off)
		if err != nil {
			return err
		}
		c.WriteMPB(dev, tile, tileOff, data)
		return nil
	case LUTHostMMIO:
		c.MMIOWrite(e.Dev, off, data)
		return nil
	case LUTPrivate:
		c.CopyPrivate(len(data))
		return nil
	}
	return fmt.Errorf("scc: WriteV through unmapped page")
}
