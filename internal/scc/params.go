package scc

import "vscc/internal/sim"

// Params holds the chip timing model. All costs are in core clock cycles
// of the 533 MHz P54C cores (the paper's configuration: core/mesh/memory
// frequencies 533/800/800 MHz).
//
// Calibration targets (paper §4.1): maximum on-chip ping-pong throughput
// around 150 MB/s — "due to the fact that the cores of the SCC are based
// on classic P54C architecture"; the copy loops of the in-order core,
// not the mesh, bound throughput. On-chip one-way latency sits in the
// ~100-cycle class (§3).
type Params struct {
	// CoreHz is the core clock (533 MHz).
	CoreHz float64

	// L1HitCycles is an MPBT read served from L1.
	L1HitCycles sim.Cycles
	// LocalMPBReadCycles is an L1 miss served by the core's own tile LMB,
	// per 32 B line.
	LocalMPBReadCycles sim.Cycles
	// LocalMPBWriteCycles is a WCB drain into the core's own tile LMB,
	// per line.
	LocalMPBWriteCycles sim.Cycles
	// RemoteReadBaseCycles is the fixed part of an L1 miss served by
	// another tile's LMB (request/response through the mesh); the
	// distance-dependent part comes from the mesh model.
	RemoteReadBaseCycles sim.Cycles
	// RemoteWriteBaseCycles is the fixed (posted) cost of draining a WCB
	// line toward another tile.
	RemoteWriteBaseCycles sim.Cycles
	// PerHopCycles is the added cost per mesh hop for a line transfer.
	PerHopCycles sim.Cycles

	// PrivateCopyCyclesPerLine is the P54C cost of moving one 32 B line
	// between private memory and registers during a copy loop (8 4-byte
	// loads or stores on the in-order pipeline plus address arithmetic).
	PrivateCopyCyclesPerLine sim.Cycles

	// InvalidateCycles is the CL1INVMB instruction.
	InvalidateCycles sim.Cycles
	// FlagPollCycles is one iteration of a flag spin loop (invalidate +
	// load + compare + branch).
	FlagPollCycles sim.Cycles

	// FlopsPerCycle is peak FP throughput (1.0 -> 533 MFLOP/s, the
	// paper's per-core peak).
	FlopsPerCycle float64

	// L1MPBTLines is the number of MPBT lines the L1 can hold.
	L1MPBTLines int
}

// DefaultParams returns the calibrated SCC timing.
func DefaultParams() Params {
	return Params{
		CoreHz:                   533e6,
		L1HitCycles:              2,
		LocalMPBReadCycles:       72,
		LocalMPBWriteCycles:      20,
		RemoteReadBaseCycles:     100,
		RemoteWriteBaseCycles:    22,
		PerHopCycles:             8,
		PrivateCopyCyclesPerLine: 40,
		InvalidateCycles:         2,
		FlagPollCycles:           30,
		FlopsPerCycle:            1.0,
		L1MPBTLines:              256,
	}
}

// MBPerSecond converts a (bytes, cycles) measurement to MB/s under this
// parameter set (1 MB = 1e6 bytes, matching the paper's axes).
func (p Params) MBPerSecond(bytes uint64, cycles sim.Cycles) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / p.CoreHz
	return float64(bytes) / 1e6 / seconds
}

// GFlops converts a (flops, cycles) measurement to GFLOP/s.
func (p Params) GFlops(flops float64, cycles sim.Cycles) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / p.CoreHz
	return flops / 1e9 / seconds
}
