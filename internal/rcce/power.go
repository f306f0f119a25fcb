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
// (RCCE_set_frequency_divider). The island voltage must already support
// the target frequency: this call does not raise it.
func (r *Rank) SetFrequencyDivider(divider int) error {
	return r.s.Chip(r.id).SetTileDivider(scc.CoreTile(r.place(r.id).Core), divider)
}
