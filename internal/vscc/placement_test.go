package vscc

// Topology-aware placement — the paper's §4.2 observation: "applications
// should prefer connections with high throughput for communication",
// but the default linear rank extension has no topology awareness. For
// BT's multi-partition q x q process grid, RowAlignedPlaces assigns
// whole process-grid rows to devices (padding devices with unused cores
// rather than straddling a row), so every x-direction neighbour pair —
// the heaviest traffic band of Fig. 8 — stays on one device.
// EXPERIMENTS' row-aligned placement row is measured by
// TestRowAlignedBTSpeedsUpWorstScheme.

import (
	"fmt"
	"testing"

	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

func TestRowAlignedPlacementNoRowStraddle(t *testing.T) {
	sys := newSystem(t, 5, SchemeVDMA)
	for _, q := range []int{8, 10, 12, 15} {
		places, err := sys.RowAlignedPlaces(q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if len(places) != q*q {
			t.Fatalf("q=%d: %d places", q, len(places))
		}
		for pj := 0; pj < q; pj++ {
			dev := places[pj*q].Dev
			for pi := 1; pi < q; pi++ {
				if places[pi+pj*q].Dev != dev {
					t.Fatalf("q=%d: row %d straddles devices", q, pj)
				}
			}
		}
	}
}

func TestRowAlignedReducesCrossDevicePairs(t *testing.T) {
	sys := newSystem(t, 5, SchemeVDMA)
	const q = 15 // 225 ranks: the paper's maximum configuration
	pairs := gridNeighborPairs(q)
	linear, err := rcce.LinearPlaces(sys.Chips, q*q)
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := sys.RowAlignedPlaces(q)
	if err != nil {
		t.Fatal(err)
	}
	lin := crossDevicePairs(linear, pairs)
	ali := crossDevicePairs(aligned, pairs)
	if ali >= lin {
		t.Errorf("aligned placement crosses %d pairs, linear %d — no improvement", ali, lin)
	}
	t.Logf("cross-device neighbour pairs at q=%d: linear %d, row-aligned %d", q, lin, ali)
}

func TestRowAlignedPlacementRejectsOversize(t *testing.T) {
	sys := newSystem(t, 2, SchemeVDMA)
	if _, err := sys.RowAlignedPlaces(15); err == nil {
		t.Error("15 rows on 2 devices (5 rows max each at q=15... 3 per device) should fail")
	}
	if _, err := sys.RowAlignedPlaces(49); err == nil {
		t.Error("row longer than a device should fail")
	}
}

func TestRowAlignedBTSpeedsUpWorstScheme(t *testing.T) {
	// Placement matters most when the inter-device path is slow: BT under
	// transparent routing must run faster with row-aligned placement.
	run := func(aligned bool) sim.Cycles {
		k := sim.NewKernel()
		sys, err := NewSystem(k, Config{Devices: 5, Scheme: SchemeRouting})
		if err != nil {
			t.Fatal(err)
		}
		const q = 10 // 48/10 = 4.8: linear placement straddles rows
		var places []rcce.Place
		if aligned {
			places, err = sys.RowAlignedPlaces(q)
		} else {
			places, err = rcce.LinearPlaces(sys.Chips, q*q)
		}
		if err != nil {
			t.Fatal(err)
		}
		session, err := sys.NewSessionAt(places)
		if err != nil {
			t.Fatal(err)
		}
		d, err := npb.NewDecomp(60, q*q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := npb.RunOn(session, d, npb.Config{Class: npb.ClassA, Iterations: 1, Timing: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	linear := run(false)
	aligned := run(true)
	if aligned >= linear {
		t.Errorf("row-aligned placement (%d cycles) not faster than linear (%d) under routing", aligned, linear)
	}
	t.Logf("BT 100 ranks under routing: linear %d cycles, row-aligned %d (%.0f%% faster)",
		linear, aligned, 100*(1-float64(aligned)/float64(linear)))
}

// crossDevicePairs counts how many of the given neighbour relations
// (rank pairs) cross a device boundary under a placement — the metric a
// placement strategy minimizes.
func crossDevicePairs(places []rcce.Place, pairs [][2]int) int {
	n := 0
	for _, p := range pairs {
		if places[p[0]].Dev != places[p[1]].Dev {
			n++
		}
	}
	return n
}

// gridNeighborPairs enumerates the neighbour relations of a q x q
// multi-partition grid: the x (±1 with row wrap), y (±q) and z (±(q+1))
// rings of Fig. 8.
func gridNeighborPairs(q int) [][2]int {
	var pairs [][2]int
	ranks := q * q
	for r := 0; r < ranks; r++ {
		pi, pj := r%q, r/q
		add := func(qi, qj int) {
			peer := ((qi+q)%q + ((qj+q)%q)*q)
			pairs = append(pairs, [2]int{r, peer})
		}
		add(pi+1, pj)   // +x ring
		add(pi, pj+1)   // +y ring
		add(pi-1, pj-1) // +z ring
	}
	return pairs
}

// RowAlignedPlaces maps a q x q process grid (ranks = q*q, rank = pi +
// pj*q) onto the system so that no grid row straddles a device
// boundary. It falls back to an error when the devices cannot hold the
// rows even with padding.
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
		for pi := 0; pi < q; pi++ {
			places[pi+pj*q] = rcce.Place{Dev: dev, Core: rowInDev*q + pi}
		}
	}
	return places, nil
}
