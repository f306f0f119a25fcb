package scc

import (
	"fmt"

	"vscc/internal/sim"
)

// SCC power management. The chip exposes 24 frequency islands (one per
// tile, clock = 1600 MHz / divider) and 6 voltage islands of 2x2 tiles.
// RCCE 2.0 ships a power API on top of this; the models here supply the
// substrate: per-tile frequency dividers scale every core-side cycle
// cost and must stay within what the island's supply voltage supports.
const (
	// GlobalClockMHz is the SCC's global clock; tile frequency is
	// GlobalClockMHz / divider.
	GlobalClockMHz = 1600
	// DefaultDivider yields the 533 MHz configuration the paper uses.
	DefaultDivider = 3
	// MinDivider / MaxDivider bound the per-tile divider (800 MHz down
	// to 100 MHz).
	MinDivider = 2
	MaxDivider = 16
	// VoltageIslands is the number of 2x2-tile voltage domains.
	VoltageIslands = 6
	// TilesPerVoltageIsland groups tiles into domains.
	TilesPerVoltageIsland = NumTiles / VoltageIslands
)

// VoltageLevel is a supply level in millivolts.
type VoltageLevel int

// The discrete supply levels of the SCC voltage regulator.
const (
	Voltage0V7 VoltageLevel = 700
	Voltage0V8 VoltageLevel = 800
	Voltage0V9 VoltageLevel = 900
	Voltage1V1 VoltageLevel = 1100
)

// MinVoltageFor returns the lowest level that supports a divider.
func MinVoltageFor(divider int) VoltageLevel {
	switch {
	case divider <= 2:
		return Voltage1V1
	case divider <= 3:
		return Voltage0V9
	case divider <= 5:
		return Voltage0V8
	default:
		return Voltage0V7
	}
}

// VoltageIslandOf maps a tile to its voltage domain.
func VoltageIslandOf(tile int) int { return tile / TilesPerVoltageIsland }

// Energy model constants: per-tile power at the nominal 533 MHz / 0.9 V
// point, split into a dynamic part (~ V^2 * f) and a leakage part
// (~ V^2). The whole-chip total at nominal settings lands in the SCC's
// published 25-50 W envelope.
const (
	// TileDynamicWattsNominal is the dynamic power of one tile at
	// 533 MHz / 0.9 V.
	TileDynamicWattsNominal = 1.6
	// TileLeakageWattsNominal is the leakage power of one tile at 0.9 V.
	TileLeakageWattsNominal = 0.4
	nominalMHz              = GlobalClockMHz / DefaultDivider
	nominalMilliVolt        = 900
)

// powerState tracks the chip's frequency and voltage configuration and
// integrates per-tile energy over simulated time.
type powerState struct {
	dividers [NumTiles]int
	voltages [VoltageIslands]VoltageLevel

	// energy integration: joules accumulated per tile up to lastAccrue.
	joules     [NumTiles]float64
	lastAccrue [NumTiles]sim.Cycles
}

func newPowerState() *powerState {
	ps := &powerState{}
	for t := range ps.dividers {
		ps.dividers[t] = DefaultDivider
	}
	for i := range ps.voltages {
		ps.voltages[i] = MinVoltageFor(DefaultDivider)
	}
	return ps
}

// TilePowerWatts returns a tile's current power draw under the
// V^2-scaled dynamic + leakage model.
func (c *Chip) TilePowerWatts(tile int) float64 {
	f := float64(c.TileFrequencyMHz(tile)) / nominalMHz
	v := float64(c.power.voltages[VoltageIslandOf(tile)]) / nominalMilliVolt
	return TileDynamicWattsNominal*v*v*f + TileLeakageWattsNominal*v*v
}

// accrueEnergy integrates a tile's energy up to the given time; it must
// be called before any change to the tile's frequency or island voltage.
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
// immediate (frequency changes are fast on the SCC) but requires the
// island voltage to support the target frequency.
func (c *Chip) SetTileDivider(tile, divider int) error {
	if divider < MinDivider || divider > MaxDivider {
		return fmt.Errorf("scc: divider %d outside [%d,%d]", divider, MinDivider, MaxDivider)
	}
	island := VoltageIslandOf(tile)
	if MinVoltageFor(divider) > c.power.voltages[island] {
		return fmt.Errorf("scc: divider %d needs %d mV, island %d is at %d mV",
			divider, MinVoltageFor(divider), island, c.power.voltages[island])
	}
	c.accrueEnergy(tile, c.Kernel.Now())
	c.power.dividers[tile] = divider
	return nil
}
