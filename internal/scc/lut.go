package scc

import "fmt"

// The SCC core addresses memory through a per-core lookup table (LUT) of
// 256 entries, each mapping one 16 MB page of the core's 32-bit physical
// address space to a system-wide destination. The paper's §2.1 notes
// that extending RCCE to vSCC needed only "minor modifications to the
// hardware abstraction layer ... such as a mapping of remote on-chip
// memory" — i.e., LUT entries pointing at other devices' MPBs. This file
// models that table: the boot-time map and the vSCC remote windows.
const (
	// LUTEntries is the number of pages per core.
	LUTEntries = 256
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
