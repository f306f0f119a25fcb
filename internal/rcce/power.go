package rcce

import (
	"fmt"

	"vscc/internal/scc"
	"vscc/internal/sim"
)

// RCCE 2.0 power-management API on top of the SCC's frequency and
// voltage islands: a rank can scale its tile's clock (fast) and its
// voltage island's supply (slow, asynchronous), trading performance for
// power exactly as on the research system.

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

// powerRequest is an in-flight asynchronous power change
// (RCCE_iset_power).
type powerRequest struct {
	done *sim.Gate
	err  error
}

// iSetPower asynchronously moves the rank's tile to the given frequency
// divider, adjusting the island voltage as required: raising the supply
// before a frequency increase, and opportunistically lowering it after a
// decrease if every tile in the island tolerates the lower level. It
// returns immediately; complete with waitPower.
func (r *Rank) iSetPower(divider int) (*powerRequest, error) {
	if divider < scc.MinDivider || divider > scc.MaxDivider {
		return nil, fmt.Errorf("rcce: divider %d outside [%d,%d]", divider, scc.MinDivider, scc.MaxDivider)
	}
	chip := r.s.Chip(r.id)
	tile := scc.CoreTile(r.place(r.id).Core)
	island := scc.VoltageIslandOf(tile)
	req := &powerRequest{done: sim.NewGate(r.s.Kernel, fmt.Sprintf("power.r%d", r.id))}
	r.s.Kernel.Spawn(fmt.Sprintf("powerctl.r%d", r.id), func(p *sim.Proc) {
		defer req.done.Open()
		target := scc.MinVoltageFor(divider)
		if target > chip.IslandVoltage(island) {
			if err := chip.SetIslandVoltage(p, island, target); err != nil {
				req.err = err
				return
			}
		}
		if err := chip.SetTileDivider(tile, divider); err != nil {
			req.err = err
			return
		}
		if target < chip.IslandVoltage(island) {
			// Best effort: other tiles in the island may still need the
			// higher supply.
			_ = chip.SetIslandVoltage(p, island, target)
		}
	})
	return req, nil
}

// waitPower blocks until an asynchronous power change completes
// (RCCE_wait_power) and returns its outcome.
func (r *Rank) waitPower(req *powerRequest) error {
	req.done.Wait(r.ctx.Proc)
	return req.err
}
