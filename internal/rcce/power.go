package rcce

import "vscc/internal/scc"

// RCCE 2.0 power-management API on top of the SCC's frequency islands: a
// rank reads and scales its tile's clock, trading performance for power
// as on the research system.

// FrequencyMHz returns the rank's current tile clock.
func (r *Rank) FrequencyMHz() int {
	return r.s.Chip(r.id).TileFrequencyMHz(scc.CoreTile(r.place(r.id).Core))
}

// SetFrequencyDivider changes the rank's tile clock immediately
// (RCCE_set_frequency_divider), within [scc.MinDivider, scc.MaxDivider]:
// the supply stays at 0.9 V, so 533 MHz is the fastest clock.
func (r *Rank) SetFrequencyDivider(divider int) error {
	return r.s.Chip(r.id).SetTileDivider(scc.CoreTile(r.place(r.id).Core), divider)
}
