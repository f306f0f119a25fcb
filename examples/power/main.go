// Power: the SCC's frequency islands through the RCCE 2.0 power API. A
// bulk-synchronous computation with imbalanced work lets the lightly
// loaded ranks clock their tiles down while waiting at the barrier —
// same completion time, lower power — and clock back up for the
// communication phase.
package main

import (
	"fmt"
	"log"

	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

const (
	ranks     = 8
	heavyWork = 4_000_000 // flops on the bottleneck rank
	lightWork = 1_000_000
)

func run(scaleDown bool) (finish sim.Cycles, avgMHz, joules float64) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, err := rcce.LinearPlaces([]*scc.Chip{chip}, ranks)
	if err != nil {
		log.Fatal(err)
	}
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places)
	if err != nil {
		log.Fatal(err)
	}
	var mhzSum float64
	var done sim.Cycles
	chipRef := chip
	err = session.Run(func(r *rcce.Rank) {
		work := float64(lightWork)
		if r.ID() == 0 {
			work = heavyWork
		}
		if scaleDown && r.ID() != 0 {
			// Light ranks: a quarter of the work — halve the clock
			// (divider 6 -> 266 MHz) and still arrive before the
			// bottleneck rank. Frequency changes are instant; the
			// supply stays at 0.9 V, which supports divider >= 3.
			if err := r.SetFrequencyDivider(6); err != nil {
				panic(err)
			}
		}
		mhzSum += float64(r.FrequencyMHz())
		r.ComputeFlops(work)
		if scaleDown && r.ID() != 0 {
			if err := r.SetFrequencyDivider(3); err != nil { // back to 533 MHz
				panic(err)
			}
		}
		r.Barrier()
		// Communication phase at full clock: ring shift of results.
		buf := make([]byte, 1024)
		next := (r.ID() + 1) % r.N()
		prev := (r.ID() + r.N() - 1) % r.N()
		if r.ID()%2 == 0 {
			r.Send(next, buf)
			r.Recv(prev, buf)
		} else {
			r.Recv(prev, buf)
			r.Send(next, buf)
		}
		if r.ID() == 0 {
			done = r.Now()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// Energy of the four tiles running the ranks, over the whole run.
	for tile := 0; tile < ranks/2; tile++ {
		joules += chipRef.TileEnergyJoules(tile, done)
	}
	return done, mhzSum / ranks, joules
}

func main() {
	full, fullMHz, fullJ := run(false)
	scaled, scaledMHz, scaledJ := run(true)
	fmt.Println("imbalanced BSP phase on 8 cores (rank 0 does 4x the work):")
	fmt.Printf("  all tiles at 533 MHz:           finish at %8.2f ms, mean clock %3.0f MHz, %6.1f mJ\n",
		float64(full)/533e3, fullMHz, 1000*fullJ)
	fmt.Printf("  light ranks scaled to 266 MHz:  finish at %8.2f ms, mean clock %3.0f MHz, %6.1f mJ\n",
		float64(scaled)/533e3, scaledMHz, 1000*scaledJ)
	slowdown := float64(scaled)/float64(full) - 1
	saved := 1 - scaledJ/fullJ
	fmt.Printf("\ncompletion time cost of the scaling: %.1f %% — energy saved: %.1f %%\n", 100*slowdown, 100*saved)
	fmt.Println("(the barrier hides the slow tiles; at a fixed 0.9 V dynamic power ~ f, so halving idle-wait clocks is free performance-wise)")
}
