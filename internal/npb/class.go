// Package npb implements the NAS Parallel Benchmark BT (block
// tridiagonal) pseudo-application in the multi-partition decomposition of
// Bailey et al., ported to RCCE the way Mattson et al. ported it to the
// SCC (paper §4.2). It is the workload behind the paper's Fig. 7
// (scalability) and Fig. 8 (traffic matrix).
//
// The solver keeps NPB BT's parallel structure exactly — q^2 processes,
// each owning q diagonally shifted cells; per iteration a six-direction
// ghost-face exchange (copy_faces) followed by pipelined block-tridiagonal
// sweeps in x, y and z with forward-elimination and back-substitution
// boundary messages between cell stages — while simplifying the physics:
// instead of the compressible Navier-Stokes right-hand side it solves a
// coupled 5-component diffusion system with genuine 5x5 block Thomas
// eliminations. Communication volumes, message counts and the
// sequential-recursion structure match BT; the verification tests check
// that the distributed solution equals the single-rank solution to
// floating-point roundoff.
package npb

import "fmt"

// Class is an NPB problem class.
type Class struct {
	Name string
	// N is the cubic grid dimension.
	N int
	// Iterations is the official timestep count.
	Iterations int
}

// The NPB BT problem classes (grid size, iterations).
var (
	ClassS = Class{Name: "S", N: 12, Iterations: 60}
	ClassW = Class{Name: "W", N: 24, Iterations: 200}
	ClassA = Class{Name: "A", N: 64, Iterations: 200}
	ClassB = Class{Name: "B", N: 102, Iterations: 200}
	// ClassC is the paper's configuration: 162^3, suitable for the
	// 240-core vSCC (§4.2).
	ClassC = Class{Name: "C", N: 162, Iterations: 200}
)

// ClassByName looks up a class.
func ClassByName(name string) (Class, error) {
	for _, c := range []Class{ClassS, ClassW, ClassA, ClassB, ClassC} {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("npb: unknown class %q", name)
}

// FlopsPerPointIter is BT's arithmetic intensity: the official class A
// operation count (168.3 Gop for 64^3 x 200 iterations) works out to
// ~3210 floating-point operations per grid point per iteration.
const FlopsPerPointIter = 3210.0

// FlopEfficiency is the fraction of the P54C's peak FP rate that BT's
// memory-bound loops sustain; it converts modelled flops into core
// cycles. 0.25 of the 533 MFLOP/s peak matches the per-core rates
// Mattson et al. report for the SCC port.
const FlopEfficiency = 0.25
