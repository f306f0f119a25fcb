package npb

import (
	"fmt"
	"math"
)

// Dim identifies a sweep/exchange direction.
type Dim int

// The three grid dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
)

// Decomp is NPB BT's multi-partition decomposition: P = q^2 processes on
// a logical q x q grid; process (pi, pj) owns q cells, cell c sitting at
// cell coordinates ((pi+c) mod q, (pj+c) mod q, c). The diagonal shift
// guarantees that every x/y/z slab contains exactly one cell of every
// process, which keeps all processes busy during the pipelined ADI
// sweeps.
type Decomp struct {
	Q int // cells per dimension; P = Q*Q
	N int // global grid dimension

	sizes  []int // cell interior sizes along one axis
	starts []int // global offsets
}

// NewDecomp builds the decomposition for an N^3 grid on ranks processes.
// ranks must be a square number (the paper: "the application can only
// handle a number of processes, which is a square number") and q may not
// exceed N.
func NewDecomp(n, ranks int) (*Decomp, error) {
	q := int(math.Round(math.Sqrt(float64(ranks))))
	if q*q != ranks || ranks <= 0 {
		return nil, fmt.Errorf("npb: %d processes is not a square number", ranks)
	}
	if q > n {
		return nil, fmt.Errorf("npb: %d cells per dimension exceed the %d-point grid", q, n)
	}
	d := &Decomp{Q: q, N: n}
	base := n / q
	rem := n % q
	off := 0
	for i := 0; i < q; i++ {
		size := base
		if i < rem {
			size++
		}
		d.sizes = append(d.sizes, size)
		d.starts = append(d.starts, off)
		off += size
	}
	return d, nil
}

// Ranks returns the process count.
func (d *Decomp) Ranks() int { return d.Q * d.Q }

// RankCoord returns the (pi, pj) position of a rank on the logical
// process grid (rank = pi + pj*q, as in the NPB sources).
func (d *Decomp) RankCoord(rank int) (pi, pj int) {
	return rank % d.Q, rank / d.Q
}

// RankAt is the inverse of RankCoord, with wraparound.
func (d *Decomp) RankAt(pi, pj int) int {
	return mod(pi, d.Q) + mod(pj, d.Q)*d.Q
}

// CellCoord returns the cell coordinates (cx, cy, cz) of a rank's c-th
// cell.
func (d *Decomp) CellCoord(rank, c int) (cx, cy, cz int) {
	pi, pj := d.RankCoord(rank)
	return mod(pi+c, d.Q), mod(pj+c, d.Q), c
}

// CellWithX returns which of a rank's cells sits at x-slab cx (every
// slab holds exactly one).
func (d *Decomp) CellWithX(rank, cx int) int {
	pi, _ := d.RankCoord(rank)
	return mod(cx-pi, d.Q)
}

// CellWithY returns which of a rank's cells sits at y-slab cy.
func (d *Decomp) CellWithY(rank, cy int) int {
	_, pj := d.RankCoord(rank)
	return mod(cy-pj, d.Q)
}

// CellWithZ returns which of a rank's cells sits at z-slab cz (trivially
// cz).
func (d *Decomp) CellWithZ(rank, cz int) int { return cz }

// Neighbor returns the rank owning the cells adjacent to rank's cells in
// the given direction (dir = +1 or -1). The multi-partition property
// makes this a single rank per direction; the mapping wraps around the
// process grid, producing the ring pattern of the paper's Fig. 8.
func (d *Decomp) Neighbor(rank int, dim Dim, dir int) int {
	pi, pj := d.RankCoord(rank)
	switch dim {
	case DimX:
		return d.RankAt(pi+dir, pj)
	case DimY:
		return d.RankAt(pi, pj+dir)
	case DimZ:
		// Cell c+1 with the same (cx, cy) belongs to (pi-1, pj-1).
		return d.RankAt(pi-dir, pj-dir)
	}
	panic("npb: bad dimension")
}

// Size and Start return the interior size / global offset of slab i
// along any axis.
func (d *Decomp) Size(i int) int  { return d.sizes[i] }
func (d *Decomp) Start(i int) int { return d.starts[i] }

func mod(a, q int) int {
	m := a % q
	if m < 0 {
		m += q
	}
	return m
}

// SquareCounts returns the square process counts up to max — Fig. 7's x
// axis (4, 9, ..., 225).
func SquareCounts(max int) []int {
	var out []int
	for q := 2; q*q <= max; q++ {
		out = append(out, q*q)
	}
	return out
}
