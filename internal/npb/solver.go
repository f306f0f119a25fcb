package npb

import (
	"encoding/binary"
	"math"

	"vscc/internal/rcce"
	"vscc/internal/sim"
)

// Solver coefficients: the coupled 5-component diffusion system. alpha
// couples neighbouring planes, couple mixes the five components inside a
// block, dtc scales the right-hand side. The blocks stay strongly
// diagonally dominant, like BT's.
const (
	alphaCoef  = 0.2
	coupleCoef = 0.02
	dtCoef     = 0.1
	diagEps    = 0.01
)

// Phase shares of FlopsPerPointIter, mirroring BT's profile: the RHS
// evaluation is the heaviest single phase, the three sweeps split the
// rest, and add is cheap.
const (
	shareRHS   = 0.37
	shareSolve = 0.20 // per sweep (x, y, z)
	shareAdd   = 0.03
)

// Config selects the problem and execution mode.
type Config struct {
	Class Class
	// Iterations overrides the class iteration count when non-zero (the
	// harness uses a handful of steady-state iterations and scales).
	Iterations int
	// Timing skips the real arithmetic and charges modelled flops only,
	// while sending messages of the exact real sizes — the mode used for
	// class C runs, where executing 162^3 x 200 real block eliminations
	// inside the simulator is not feasible (see DESIGN.md).
	Timing bool
}

func (c Config) iterations() int {
	if c.Iterations > 0 {
		return c.Iterations
	}
	return c.Class.Iterations
}

// Result summarizes one run.
type Result struct {
	Ranks      int
	Iterations int
	Cycles     sim.Cycles
	// GFlops is the modelled application rate: FlopsPerPointIter per
	// grid point per iteration over the measured time.
	GFlops float64
	// Checksum is the component-wise sum of the final solution
	// (verification mode only).
	Checksum Vec5
}

// cell is one of a rank's q sub-cubes.
type cell struct {
	c          int // cell index (= cz)
	cx, cy, cz int
	nx, ny, nz int
	x0, y0, z0 int

	u   []Vec5  // (nx+2)(ny+2)(nz+2), ghost depth 1
	rhs []Vec5  // nx*ny*nz
	cp  []Block // the current sweep's C' blocks, one per point
}

func (ce *cell) iu(i, j, k int) int {
	return ((k+1)*(ce.ny+2)+(j+1))*(ce.nx+2) + (i + 1)
}

func (ce *cell) ir(i, j, k int) int {
	return (k*ce.ny+j)*ce.nx + i
}

func (ce *cell) points() int { return ce.nx * ce.ny * ce.nz }

// solver is the per-rank state.
type solver struct {
	r     *rcce.Rank
	d     *Decomp
	cfg   Config
	cells []*cell

	offA Block // sub/super-diagonal block (constant)
	// Every message slices one of these, sized at setup to the largest.
	// One receive buffer suffices: a sweep consumes its incoming boundary
	// before the next early receive lands in it. The send buffer stays
	// separate: the outgoing boundary is packed before that early receive
	// and sent after it.
	sendBuf, recvBuf []byte
}

// initialU is the deterministic initial condition, a function of global
// coordinates so that every decomposition computes identical data.
func initialU(gx, gy, gz, m int) float64 {
	base := float64(gx + 2*gy + 3*gz + 5*m)
	return 1 + 0.002*base + 0.0001*base*base/(base+10)
}

// boundaryU is the Dirichlet boundary value outside the global grid.
func boundaryU(m int) float64 { return 0.5 + 0.05*float64(m) }

// Program returns the SPMD rank body solving cfg on decomposition d.
// res is filled in by rank 0.
func Program(d *Decomp, cfg Config, res *Result) func(*rcce.Rank) {
	return func(r *rcce.Rank) {
		s := &solver{r: r, d: d, cfg: cfg}
		s.setup()
		iters := cfg.iterations()
		r.Barrier()
		t0 := r.Now()
		for it := 0; it < iters; it++ {
			s.iterate()
		}
		r.Barrier()
		elapsed := r.Now() - t0
		sum := s.checksum()
		if err := r.Allreduce(rcce.OpSum, sum[:]); err != nil {
			panic(err)
		}
		if r.ID() == 0 {
			n := float64(d.N)
			flops := n * n * n * FlopsPerPointIter * float64(iters)
			res.Ranks = d.Ranks()
			res.Iterations = iters
			res.Cycles = elapsed
			res.GFlops = r.Ctx().Params().GFlops(flops, elapsed)
			copy(res.Checksum[:], sum[:])
		}
	}
}

// setup builds the rank's cells and initial data.
func (s *solver) setup() {
	d := s.d
	s.offA = identity(-alphaCoef)
	for m := 0; m < 5; m++ {
		s.offA[m][(m+1)%5] -= coupleCoef
	}
	msg := 0 // the largest message: a cell's forward boundary or a face exchange
	for c := 0; c < d.Q; c++ {
		cx, cy, cz := d.CellCoord(s.r.ID(), c)
		ce := &cell{
			c: c, cx: cx, cy: cy, cz: cz,
			nx: d.Size(cx), ny: d.Size(cy), nz: d.Size(cz),
			x0: d.Start(cx), y0: d.Start(cy), z0: d.Start(cz),
		}
		if !s.cfg.Timing {
			ce.u = make([]Vec5, (ce.nx+2)*(ce.ny+2)*(ce.nz+2))
			ce.rhs = make([]Vec5, ce.points())
			ce.cp = make([]Block, ce.points())
			for k := -1; k <= ce.nz; k++ {
				for j := -1; j <= ce.ny; j++ {
					for i := -1; i <= ce.nx; i++ {
						gx, gy, gz := ce.x0+i, ce.y0+j, ce.z0+k
						var v Vec5
						for m := 0; m < 5; m++ {
							if gx < 0 || gy < 0 || gz < 0 || gx >= s.d.N || gy >= s.d.N || gz >= s.d.N {
								v[m] = boundaryU(m)
							} else {
								v[m] = initialU(gx, gy, gz, m)
							}
						}
						ce.u[ce.iu(i, j, k)] = v
					}
				}
			}
		}
		s.cells = append(s.cells, ce)
		msg = max(msg, forwardBoundaryBytes*max(ce.facePoints(DimX), ce.facePoints(DimY), ce.facePoints(DimZ)))
	}
	for _, dim := range []Dim{DimX, DimY, DimZ} {
		msg = max(msg, s.faceBufBytes(dim, +1), s.faceBufBytes(dim, -1))
	}
	s.sendBuf, s.recvBuf = make([]byte, msg), make([]byte, msg)
}

// chargeFlops converts modelled flops (at FlopEfficiency of peak) into
// core cycles.
func (s *solver) chargeFlops(points int, share float64) {
	s.r.ComputeFlops(float64(points) * FlopsPerPointIter * share / FlopEfficiency)
}

// iterate performs one BT timestep: copy_faces, rhs, three pipelined
// sweeps, add.
func (s *solver) iterate() {
	s.copyFaces()
	s.computeRHS()
	s.sweep(DimX)
	s.sweep(DimY)
	s.sweep(DimZ)
	s.add()
}

// checksum sums the interior solution per component.
func (s *solver) checksum() Vec5 {
	var sum Vec5
	if s.cfg.Timing {
		return sum
	}
	for _, ce := range s.cells {
		for k := 0; k < ce.nz; k++ {
			for j := 0; j < ce.ny; j++ {
				for i := 0; i < ce.nx; i++ {
					v := ce.u[ce.iu(i, j, k)]
					for m := 0; m < 5; m++ {
						sum[m] += v[m]
					}
				}
			}
		}
	}
	return sum
}

// --- copy_faces ---------------------------------------------------------

// facePoints returns the number of points on a cell's face orthogonal to
// dim.
func (ce *cell) facePoints(dim Dim) int {
	switch dim {
	case DimX:
		return ce.ny * ce.nz
	case DimY:
		return ce.nx * ce.nz
	default:
		return ce.nx * ce.ny
	}
}

// cellCoordIn returns the cell's slab index along dim.
func (ce *cell) coordIn(dim Dim) int {
	switch dim {
	case DimX:
		return ce.cx
	case DimY:
		return ce.cy
	default:
		return ce.cz
	}
}

// copyFaces performs the six-direction ghost exchange: for every
// direction, the faces of all qualifying cells aggregate into a single
// message to the one neighbouring rank (as in NPB's copy_faces).
func (s *solver) copyFaces() {
	for _, dim := range []Dim{DimX, DimY, DimZ} {
		parity := s.ringParity(dim) % 2
		for _, dir := range []int{+1, -1} {
			peerSend := s.d.Neighbor(s.r.ID(), dim, dir)  // receives our dir-side faces
			peerRecv := s.d.Neighbor(s.r.ID(), dim, -dir) // sends us their dir-side faces
			sendBytes := s.faceBufBytes(dim, dir)
			// Ghosts we fill sit on our -dir side; their volume mirrors
			// the peer's dir-side faces, which by the multi-partition
			// symmetry equals our own -dir face volume.
			recvBytes := s.faceBufBytes(dim, -dir)
			if peerSend == s.r.ID() { // q == 1: nothing to exchange
				continue
			}
			send := func() {
				buf := s.sendBuf[:sendBytes]
				if !s.cfg.Timing {
					s.packFaces(dim, dir, buf)
				}
				if err := s.r.Send(peerSend, buf); err != nil {
					panic(err)
				}
			}
			recv := func() {
				buf := s.recvBuf[:recvBytes]
				if err := s.r.Recv(peerRecv, buf); err != nil {
					panic(err)
				}
				if !s.cfg.Timing {
					s.unpackFaces(dim, -dir, buf)
				}
			}
			// Deadlock-free ordering: even ring positions send first.
			// Every exchange ring contains both parities, so at least one
			// rank per ring is receiving while its predecessor sends.
			if parity == 0 {
				send()
				recv()
			} else {
				recv()
				send()
			}
		}
	}
	// Ghost-update arithmetic is folded into the RHS share.
}

// faceBufBytes sizes the aggregate face message in direction (dim, dir).
func (s *solver) faceBufBytes(dim Dim, dir int) int {
	points := 0
	for _, ce := range s.cells {
		if s.hasNeighborCell(ce, dim, dir) {
			points += ce.facePoints(dim)
		}
	}
	return points * 5 * 8
}

// hasNeighborCell reports whether the cell has an in-grid neighbour in
// direction (dim, dir) — faces at the physical boundary are not sent.
func (s *solver) hasNeighborCell(ce *cell, dim Dim, dir int) bool {
	c := ce.coordIn(dim)
	if dir > 0 {
		return c < s.d.Q-1
	}
	return c > 0
}

// packFaces serializes the dir-side interior plane of each qualifying
// cell, in cell order.
func (s *solver) packFaces(dim Dim, dir int, buf []byte) {
	off := 0
	for _, ce := range s.cells {
		if !s.hasNeighborCell(ce, dim, dir) {
			continue
		}
		ce.forEachFacePoint(dim, dir, false, func(i, j, k int) {
			off = putVec5(buf, off, ce.u[ce.iu(i, j, k)])
		})
	}
}

// unpackFaces fills the dir-side ghost plane of each qualifying cell.
func (s *solver) unpackFaces(dim Dim, dir int, buf []byte) {
	off := 0
	for _, ce := range s.cells {
		if !s.hasNeighborCell(ce, dim, dir) {
			continue
		}
		ce.forEachFacePoint(dim, dir, true, func(i, j, k int) {
			var v Vec5
			off = getVec5(buf, off, &v)
			ce.u[ce.iu(i, j, k)] = v
		})
	}
}

// forEachFacePoint visits the face plane (ghost=false: the outermost
// interior plane; ghost=true: the ghost plane) on the dir side of the
// cell, in (k, j) / (k, i) / (j, i) order — identical for pack and
// unpack.
func (ce *cell) forEachFacePoint(dim Dim, dir int, ghost bool, fn func(i, j, k int)) {
	fixed := 0
	switch {
	case dir > 0 && !ghost:
		fixed = ce.dimSize(dim) - 1
	case dir > 0 && ghost:
		fixed = ce.dimSize(dim)
	case dir < 0 && !ghost:
		fixed = 0
	default:
		fixed = -1
	}
	switch dim {
	case DimX:
		for k := 0; k < ce.nz; k++ {
			for j := 0; j < ce.ny; j++ {
				fn(fixed, j, k)
			}
		}
	case DimY:
		for k := 0; k < ce.nz; k++ {
			for i := 0; i < ce.nx; i++ {
				fn(i, fixed, k)
			}
		}
	default:
		for j := 0; j < ce.ny; j++ {
			for i := 0; i < ce.nx; i++ {
				fn(i, j, fixed)
			}
		}
	}
}

func (ce *cell) dimSize(dim Dim) int {
	switch dim {
	case DimX:
		return ce.nx
	case DimY:
		return ce.ny
	default:
		return ce.nz
	}
}

// --- right-hand side ------------------------------------------------------

// computeRHS evaluates the coupled diffusion RHS on every interior point
// using the freshly exchanged ghosts.
func (s *solver) computeRHS() {
	for _, ce := range s.cells {
		if !s.cfg.Timing {
			for k := 0; k < ce.nz; k++ {
				for j := 0; j < ce.ny; j++ {
					for i := 0; i < ce.nx; i++ {
						c := ce.u[ce.iu(i, j, k)]
						xm := ce.u[ce.iu(i-1, j, k)]
						xp := ce.u[ce.iu(i+1, j, k)]
						ym := ce.u[ce.iu(i, j-1, k)]
						yp := ce.u[ce.iu(i, j+1, k)]
						zm := ce.u[ce.iu(i, j, k-1)]
						zp := ce.u[ce.iu(i, j, k+1)]
						var out Vec5
						for m := 0; m < 5; m++ {
							lap := xm[m] + xp[m] + ym[m] + yp[m] + zm[m] + zp[m] - 6*c[m]
							out[m] = dtCoef * (lap + coupleCoef*(c[(m+1)%5]-c[m]))
						}
						ce.rhs[ce.ir(i, j, k)] = out
					}
				}
			}
		}
		s.chargeFlops(ce.points(), shareRHS)
	}
}

// add applies the solved update.
func (s *solver) add() {
	for _, ce := range s.cells {
		if !s.cfg.Timing {
			for k := 0; k < ce.nz; k++ {
				for j := 0; j < ce.ny; j++ {
					for i := 0; i < ce.nx; i++ {
						r := ce.rhs[ce.ir(i, j, k)]
						v := &ce.u[ce.iu(i, j, k)]
						for m := 0; m < 5; m++ {
							v[m] += r[m]
						}
					}
				}
			}
		}
		s.chargeFlops(ce.points(), shareAdd)
	}
}

// --- codec helpers --------------------------------------------------------

func putVec5(buf []byte, off int, v Vec5) int {
	for m := 0; m < 5; m++ {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v[m]))
		off += 8
	}
	return off
}

func getVec5(buf []byte, off int, v *Vec5) int {
	for m := 0; m < 5; m++ {
		v[m] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return off
}

func putBlock(buf []byte, off int, b Block) int {
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(b[i][j]))
			off += 8
		}
	}
	return off
}

func getBlock(buf []byte, off int, b *Block) int {
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			b[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return off
}
