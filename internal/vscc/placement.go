package vscc

// Topology-aware placement — the paper's §4.2 observation: "applications
// should prefer connections with high throughput for communication",
// but the default linear rank extension has no topology awareness. For
// BT's multi-partition q x q process grid, RowAlignedPlaces assigns
// whole process-grid rows to devices (padding devices with unused cores
// rather than straddling a row), so every x-direction neighbour pair —
// the heaviest traffic band of Fig. 8 — stays on one device.

import (
	"fmt"

	"vscc/internal/rcce"
)

// RowAlignedPlaces maps a q x q process grid (ranks = q*q, rank = pi +
// pj*q) onto the system so that no grid row straddles a device
// boundary. It falls back to an error when the devices cannot hold the
// rows even with padding.
//
//lint:ignore deadexport EXPERIMENTS' row-aligned placement row is measured through it
func (s *System) RowAlignedPlaces(q int) ([]rcce.Place, error) {
	ranks := q * q
	rowsPerDevice := 48 / q // whole rows that fit one device
	if rowsPerDevice == 0 {
		return nil, fmt.Errorf("vscc: a %d-rank row does not fit one device", q)
	}
	devicesNeeded := (q + rowsPerDevice - 1) / rowsPerDevice
	if devicesNeeded > len(s.Chips) {
		return nil, fmt.Errorf("vscc: row-aligned placement of %d ranks needs %d devices, have %d",
			ranks, devicesNeeded, len(s.Chips))
	}
	places := make([]rcce.Place, ranks)
	for pj := 0; pj < q; pj++ {
		dev := pj / rowsPerDevice
		rowInDev := pj % rowsPerDevice
		alive := s.Chips[dev].AliveCores()
		if len(alive) < rowsPerDevice*q {
			return nil, fmt.Errorf("vscc: device %d has %d cores alive, row-aligned placement needs %d",
				dev, len(alive), rowsPerDevice*q)
		}
		for pi := 0; pi < q; pi++ {
			places[pi+pj*q] = rcce.Place{Dev: dev, Core: alive[rowInDev*q+pi]}
		}
	}
	return places, nil
}
