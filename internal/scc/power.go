package scc

import (
	"fmt"

	"vscc/internal/sim"
)

// SCC power management. The chip exposes 24 frequency islands (one per
// tile, clock = 1600 MHz / divider); a tile's divider scales every
// core-side cycle cost. The supply stays at the paper's 0.9 V, which
// bounds the divider from below.
const (
	// GlobalClockMHz is the SCC's global clock; tile frequency is
	// GlobalClockMHz / divider.
	GlobalClockMHz = 1600
	// DefaultDivider yields the 533 MHz configuration the paper uses.
	DefaultDivider = 3
	// MinDivider / MaxDivider bound the per-tile divider: 533 MHz, the
	// fastest clock 0.9 V supports (800 MHz needs 1.1 V), down to
	// 100 MHz.
	MinDivider = 3
	MaxDivider = 16
)

// Energy model constants: per-tile power at the nominal 533 MHz / 0.9 V
// point, split into a dynamic part (~ f at the fixed supply) and a
// leakage part. The whole-chip total at nominal settings lands in the
// SCC's published 25-50 W envelope.
const (
	// TileDynamicWattsNominal is the dynamic power of one tile at
	// 533 MHz / 0.9 V.
	TileDynamicWattsNominal = 1.6
	// TileLeakageWattsNominal is the leakage power of one tile at 0.9 V.
	TileLeakageWattsNominal = 0.4
	nominalMHz              = GlobalClockMHz / DefaultDivider
)

// powerState tracks the chip's frequency configuration and integrates
// per-tile energy over simulated time.
type powerState struct {
	dividers [NumTiles]int

	// energy integration: joules accumulated per tile up to lastAccrue.
	joules     [NumTiles]float64
	lastAccrue [NumTiles]sim.Cycles
}

func newPowerState() *powerState {
	ps := &powerState{}
	for t := range ps.dividers {
		ps.dividers[t] = DefaultDivider
	}
	return ps
}

// TilePowerWatts returns a tile's current power draw: dynamic power
// scaled by the tile clock, plus leakage.
func (c *Chip) TilePowerWatts(tile int) float64 {
	f := float64(c.TileFrequencyMHz(tile)) / nominalMHz
	return TileDynamicWattsNominal*f + TileLeakageWattsNominal
}

// accrueEnergy integrates a tile's energy up to the given time; it must
// be called before any change to the tile's frequency.
func (c *Chip) accrueEnergy(tile int, now sim.Cycles) {
	ps := c.power
	if now <= ps.lastAccrue[tile] {
		return
	}
	seconds := float64(now-ps.lastAccrue[tile]) / c.Params.CoreHz
	ps.joules[tile] += c.TilePowerWatts(tile) * seconds
	ps.lastAccrue[tile] = now
}

// TileEnergyJoules returns a tile's accumulated energy up to now.
func (c *Chip) TileEnergyJoules(tile int, now sim.Cycles) float64 {
	c.accrueEnergy(tile, now)
	return c.power.joules[tile]
}

// TileFrequencyMHz returns a tile's current clock.
func (c *Chip) TileFrequencyMHz(tile int) int {
	return GlobalClockMHz / c.power.dividers[tile]
}

// scaleCost converts a cycle cost expressed at the 533 MHz reference
// clock into the tile's current clock domain.
func (c *Chip) scaleCost(tile int, cost sim.Cycles) sim.Cycles {
	d := c.power.dividers[tile]
	if d == DefaultDivider {
		return cost
	}
	return cost * sim.Cycles(d) / DefaultDivider
}

// SetTileDivider changes a tile's frequency divider. The change is
// immediate (frequency changes are fast on the SCC) but must stay within
// what the 0.9 V supply supports.
func (c *Chip) SetTileDivider(tile, divider int) error {
	if divider < MinDivider || divider > MaxDivider {
		return fmt.Errorf("scc: divider %d outside [%d,%d] (the 0.9 V supply)", divider, MinDivider, MaxDivider)
	}
	c.accrueEnergy(tile, c.Kernel.Now())
	c.power.dividers[tile] = divider
	return nil
}
