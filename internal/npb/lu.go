package npb

import (
	"fmt"
	"math"

	"vscc/internal/rcce"
)

// NPB LU (simplified in the same spirit as the BT solver): the SSOR
// pseudo-application. The grid is decomposed in two dimensions (each
// rank owns a full-depth column block); every iteration evaluates a
// right-hand side from ghost faces, then performs a lower-triangular
// sweep — a 2D wavefront from the (0,0) corner where each k-plane needs
// the west and north boundary values of the same plane — and a mirrored
// upper-triangular sweep from the opposite corner.
//
// Communication-wise LU is BT's counterpart: per plane and sweep a rank
// exchanges only a thin boundary pencil (a few hundred bytes at the
// paper's class sizes), but does so N planes x 2 sweeps per iteration —
// many small latency-bound messages instead of BT's few bandwidth-bound
// ones. That contrast is exactly what makes the vSCC scheme choice (and
// the small-message direct threshold, §3.3) visible at application
// level.
const (
	// FlopsLUPerPointIter matches NPB LU's arithmetic intensity (class A:
	// ~119 Gop over 64^3 x 250 iterations).
	FlopsLUPerPointIter = 1820.0
	luAlpha             = 0.18
	luBeta              = 1.9
	luGamma             = 0.02
	luDt                = 0.12
	// LU phase shares.
	luShareRHS   = 0.30
	luShareSweep = 0.33 // per sweep (lower, upper)
	luShareAdd   = 0.04
)

// LUDecomp is the 2D column decomposition.
type LUDecomp struct {
	N, Px, Py int

	xs, xo []int // sizes and offsets along x
	ys, yo []int
}

// NewLUDecomp factors ranks into the most square Px x Py grid with
// Px >= Py and splits the N^3 grid into full-depth column blocks.
func NewLUDecomp(n, ranks int) (*LUDecomp, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("npb: %d processes", ranks)
	}
	py := int(math.Sqrt(float64(ranks)))
	for ; py >= 1; py-- {
		if ranks%py == 0 {
			break
		}
	}
	px := ranks / py
	if px > n || py > n {
		return nil, fmt.Errorf("npb: %dx%d process grid exceeds the %d-point grid", px, py, n)
	}
	d := &LUDecomp{N: n, Px: px, Py: py}
	split := func(parts int) (sizes, offs []int) {
		base, rem, off := n/parts, n%parts, 0
		for i := 0; i < parts; i++ {
			sz := base
			if i < rem {
				sz++
			}
			sizes = append(sizes, sz)
			offs = append(offs, off)
			off += sz
		}
		return
	}
	d.xs, d.xo = split(px)
	d.ys, d.yo = split(py)
	return d, nil
}

// Ranks returns the process count.
func (d *LUDecomp) Ranks() int { return d.Px * d.Py }

// Coord returns a rank's process-grid position (rank = pi + pj*Px).
func (d *LUDecomp) Coord(rank int) (pi, pj int) { return rank % d.Px, rank / d.Px }

// RankAt is the inverse of Coord (no wraparound: LU's grid is open).
func (d *LUDecomp) RankAt(pi, pj int) int {
	if pi < 0 || pi >= d.Px || pj < 0 || pj >= d.Py {
		return -1
	}
	return pi + pj*d.Px
}

// luState is the per-rank solver state.
type luState struct {
	r   *rcce.Rank
	d   *LUDecomp
	cfg Config

	pi, pj int
	nx, ny int
	x0, y0 int

	u                 []Vec5 // (nx+2) x (ny+2) x N with ghost skirt in x/y
	rhs               []Vec5 // nx x ny x N
	westCol, northRow []Vec5 // a sweep plane's upstream pencils
	sendBuf, recvBuf  []byte // sized at setup and sliced per message, as in BT
}

func (s *luState) iu(i, j, k int) int { return (k*(s.ny+2)+(j+1))*(s.nx+2) + (i + 1) }
func (s *luState) ir(i, j, k int) int { return (k*s.ny+j)*s.nx + i }
func (s *luState) points() int        { return s.nx * s.ny * s.d.N }

// LUProgram returns the SPMD body for the LU solver; res is filled by
// rank 0. cfg.Class supplies N; cfg.Timing works as for BT.
func LUProgram(d *LUDecomp, cfg Config, res *Result) func(*rcce.Rank) {
	return func(r *rcce.Rank) {
		s := &luState{r: r, d: d, cfg: cfg}
		s.setup()
		iters := cfg.iterations()
		r.Barrier()
		t0 := r.Now()
		for it := 0; it < iters; it++ {
			s.exchangeFaces()
			s.computeRHS()
			s.sweep(false) // lower: from the (0,0) corner
			s.sweep(true)  // upper: from the (Px-1,Py-1) corner
			s.add()
		}
		r.Barrier()
		elapsed := r.Now() - t0
		sum := s.checksum()
		if err := r.Allreduce(rcce.OpSum, sum[:]); err != nil {
			panic(err)
		}
		if r.ID() == 0 {
			n := float64(d.N)
			res.Ranks = d.Ranks()
			res.Iterations = iters
			res.Cycles = elapsed
			res.GFlops = r.Ctx().Params().GFlops(n*n*n*FlopsLUPerPointIter*float64(iters), elapsed)
			copy(res.Checksum[:], sum[:])
		}
	}
}

func (s *luState) setup() {
	s.pi, s.pj = s.d.Coord(s.r.ID())
	s.nx, s.ny = s.d.xs[s.pi], s.d.ys[s.pj]
	s.x0, s.y0 = s.d.xo[s.pi], s.d.yo[s.pj]
	face := max(s.nx, s.ny) * s.d.N * 5 * 8
	s.sendBuf, s.recvBuf = make([]byte, face), make([]byte, face)
	if s.cfg.Timing {
		return
	}
	s.u = make([]Vec5, (s.nx+2)*(s.ny+2)*s.d.N)
	s.rhs = make([]Vec5, s.points())
	s.westCol, s.northRow = make([]Vec5, s.ny), make([]Vec5, s.nx)
	for k := 0; k < s.d.N; k++ {
		for j := -1; j <= s.ny; j++ {
			for i := -1; i <= s.nx; i++ {
				gx, gy := s.x0+i, s.y0+j
				var v Vec5
				for m := 0; m < 5; m++ {
					if gx < 0 || gy < 0 || gx >= s.d.N || gy >= s.d.N {
						v[m] = boundaryU(m)
					} else {
						v[m] = initialU(gx, gy, k, m)
					}
				}
				s.u[s.iu(i, j, k)] = v
			}
		}
	}
}

func (s *luState) chargeFlops(share float64) {
	s.r.ComputeFlops(float64(s.points()) * FlopsLUPerPointIter * share / FlopEfficiency)
}

// exchangeFaces swaps the full-depth x/y ghost skirts of u with the four
// neighbours (one message per direction per iteration). The process grid
// is open (no wraparound), so a simple even/odd ordering is
// deadlock-free.
func (s *luState) exchangeFaces() {
	type dirSpec struct {
		peer   int
		parity int
		count  int // points per face
		pack   func(buf []byte)
		unpack func(buf []byte)
	}
	mkCol := func(i int) func([]byte) {
		return func(buf []byte) {
			off := 0
			for k := 0; k < s.d.N; k++ {
				for j := 0; j < s.ny; j++ {
					off = putVec5(buf, off, s.u[s.iu(i, j, k)])
				}
			}
		}
	}
	unCol := func(i int) func([]byte) {
		return func(buf []byte) {
			off := 0
			for k := 0; k < s.d.N; k++ {
				for j := 0; j < s.ny; j++ {
					var v Vec5
					off = getVec5(buf, off, &v)
					s.u[s.iu(i, j, k)] = v
				}
			}
		}
	}
	mkRow := func(j int) func([]byte) {
		return func(buf []byte) {
			off := 0
			for k := 0; k < s.d.N; k++ {
				for i := 0; i < s.nx; i++ {
					off = putVec5(buf, off, s.u[s.iu(i, j, k)])
				}
			}
		}
	}
	unRow := func(j int) func([]byte) {
		return func(buf []byte) {
			off := 0
			for k := 0; k < s.d.N; k++ {
				for i := 0; i < s.nx; i++ {
					var v Vec5
					off = getVec5(buf, off, &v)
					s.u[s.iu(i, j, k)] = v
				}
			}
		}
	}
	dirs := []dirSpec{
		{peer: s.d.RankAt(s.pi+1, s.pj), parity: s.pi % 2, count: s.ny * s.d.N, pack: mkCol(s.nx - 1), unpack: unCol(s.nx)},
		{peer: s.d.RankAt(s.pi-1, s.pj), parity: s.pi % 2, count: s.ny * s.d.N, pack: mkCol(0), unpack: unCol(-1)},
		{peer: s.d.RankAt(s.pi, s.pj+1), parity: s.pj % 2, count: s.nx * s.d.N, pack: mkRow(s.ny - 1), unpack: unRow(s.ny)},
		{peer: s.d.RankAt(s.pi, s.pj-1), parity: s.pj % 2, count: s.nx * s.d.N, pack: mkRow(0), unpack: unRow(-1)},
	}
	for _, dir := range dirs {
		if dir.peer < 0 {
			continue
		}
		send := func() {
			buf := s.sendBuf[:dir.count*5*8]
			if !s.cfg.Timing {
				dir.pack(buf)
			}
			if err := s.r.Send(dir.peer, buf); err != nil {
				panic(err)
			}
		}
		recv := func() {
			buf := s.recvBuf[:dir.count*5*8]
			if err := s.r.Recv(dir.peer, buf); err != nil {
				panic(err)
			}
			if !s.cfg.Timing {
				dir.unpack(buf)
			}
		}
		if dir.parity == 0 {
			send()
			recv()
		} else {
			recv()
			send()
		}
	}
}

// computeRHS evaluates the coupled stencil (k-neighbours are local).
func (s *luState) computeRHS() {
	defer s.chargeFlops(luShareRHS)
	if s.cfg.Timing {
		return
	}
	for k := 0; k < s.d.N; k++ {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				c := s.u[s.iu(i, j, k)]
				xm := s.u[s.iu(i-1, j, k)]
				xp := s.u[s.iu(i+1, j, k)]
				ym := s.u[s.iu(i, j-1, k)]
				yp := s.u[s.iu(i, j+1, k)]
				var zm, zp Vec5
				if k > 0 {
					zm = s.u[s.iu(i, j, k-1)]
				} else {
					for m := 0; m < 5; m++ {
						zm[m] = boundaryU(m)
					}
				}
				if k < s.d.N-1 {
					zp = s.u[s.iu(i, j, k+1)]
				} else {
					for m := 0; m < 5; m++ {
						zp[m] = boundaryU(m)
					}
				}
				var out Vec5
				for m := 0; m < 5; m++ {
					lap := xm[m] + xp[m] + ym[m] + yp[m] + zm[m] + zp[m] - 6*c[m]
					out[m] = luDt * (lap + luGamma*(c[(m+1)%5]-c[m]))
				}
				s.rhs[s.ir(i, j, k)] = out
			}
		}
	}
}

// sweep performs the SSOR triangular solve: a 2D wavefront over the
// process grid, one k-plane at a time. upper mirrors everything.
func (s *luState) sweep(upper bool) {
	defer s.chargeFlops(luShareSweep)
	// Neighbours in the sweep's flow direction.
	dirI, dirJ := 1, 1
	if upper {
		dirI, dirJ = -1, -1
	}
	recvW := s.d.RankAt(s.pi-dirI, s.pj)
	recvN := s.d.RankAt(s.pi, s.pj-dirJ)
	sendE := s.d.RankAt(s.pi+dirI, s.pj)
	sendS := s.d.RankAt(s.pi, s.pj+dirJ)

	colBytes := s.ny * 5 * 8
	rowBytes := s.nx * 5 * 8
	westCol, northRow := s.westCol, s.northRow
	for plane := 0; plane < s.d.N; plane++ {
		k := plane
		if upper {
			k = s.d.N - 1 - plane
		}
		// Boundary pencils of this plane from the upstream neighbours.
		if recvW >= 0 {
			buf := s.recvBuf[:colBytes]
			if err := s.r.Recv(recvW, buf); err != nil {
				panic(err)
			}
			if !s.cfg.Timing {
				off := 0
				for j := 0; j < s.ny; j++ {
					off = getVec5(buf, off, &westCol[j])
				}
			}
		} else if !s.cfg.Timing {
			for j := range westCol {
				westCol[j] = Vec5{}
			}
		}
		if recvN >= 0 {
			buf := s.recvBuf[:rowBytes]
			if err := s.r.Recv(recvN, buf); err != nil {
				panic(err)
			}
			if !s.cfg.Timing {
				off := 0
				for i := 0; i < s.nx; i++ {
					off = getVec5(buf, off, &northRow[i])
				}
			}
		} else if !s.cfg.Timing {
			for i := range northRow {
				northRow[i] = Vec5{}
			}
		}
		if !s.cfg.Timing {
			s.solvePlane(k, upper, westCol, northRow)
		}
		// Downstream boundary pencils.
		if sendE >= 0 {
			buf := s.sendBuf[:colBytes]
			if !s.cfg.Timing {
				off := 0
				ei := s.nx - 1
				if upper {
					ei = 0
				}
				for j := 0; j < s.ny; j++ {
					off = putVec5(buf, off, s.rhs[s.ir(ei, j, k)])
				}
			}
			if err := s.r.Send(sendE, buf); err != nil {
				panic(err)
			}
		}
		if sendS >= 0 {
			buf := s.sendBuf[:rowBytes]
			if !s.cfg.Timing {
				off := 0
				ej := s.ny - 1
				if upper {
					ej = 0
				}
				for i := 0; i < s.nx; i++ {
					off = putVec5(buf, off, s.rhs[s.ir(i, ej, k)])
				}
			}
			if err := s.r.Send(sendS, buf); err != nil {
				panic(err)
			}
		}
	}
}

// solvePlane runs the in-plane recursion: every point depends on its
// upstream i/j neighbours (within the plane) and the upstream k plane
// (local). The per-point arithmetic is order-independent given its
// dependencies, so the distributed solution equals the serial one.
func (s *luState) solvePlane(k int, upper bool, westCol, northRow []Vec5) {
	n := s.d.N
	iStart, iEnd, iStep := 0, s.nx, 1
	jStart, jEnd, jStep := 0, s.ny, 1
	kPrev := k - 1
	if upper {
		iStart, iEnd, iStep = s.nx-1, -1, -1
		jStart, jEnd, jStep = s.ny-1, -1, -1
		kPrev = k + 1
	}
	for j := jStart; j != jEnd; j += jStep {
		for i := iStart; i != iEnd; i += iStep {
			var vi, vj, vk Vec5
			if i-iStep >= 0 && i-iStep < s.nx {
				vi = s.rhs[s.ir(i-iStep, j, k)]
			} else {
				vi = westCol[j]
			}
			if j-jStep >= 0 && j-jStep < s.ny {
				vj = s.rhs[s.ir(i, j-jStep, k)]
			} else {
				vj = northRow[i]
			}
			if kPrev >= 0 && kPrev < n {
				vk = s.rhs[s.ir(i, j, kPrev)]
			}
			d := s.rhs[s.ir(i, j, k)]
			var out Vec5
			for m := 0; m < 5; m++ {
				out[m] = (d[m] + luAlpha*(vi[m]+vj[m]+vk[m]) + luGamma*d[(m+1)%5]) / luBeta
			}
			s.rhs[s.ir(i, j, k)] = out
		}
	}
}

// add applies the update.
func (s *luState) add() {
	defer s.chargeFlops(luShareAdd)
	if s.cfg.Timing {
		return
	}
	for k := 0; k < s.d.N; k++ {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				rv := s.rhs[s.ir(i, j, k)]
				v := &s.u[s.iu(i, j, k)]
				for m := 0; m < 5; m++ {
					v[m] += rv[m]
				}
			}
		}
	}
}

func (s *luState) checksum() Vec5 {
	var sum Vec5
	if s.cfg.Timing {
		return sum
	}
	for k := 0; k < s.d.N; k++ {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				v := s.u[s.iu(i, j, k)]
				for m := 0; m < 5; m++ {
					sum[m] += v[m]
				}
			}
		}
	}
	return sum
}

// RunLU executes the LU solver on an existing session.
func RunLU(session *rcce.Session, d *LUDecomp, cfg Config) (Result, error) {
	if session.NumRanks() != d.Ranks() {
		return Result{}, fmt.Errorf("npb: session has %d ranks, LU decomposition needs %d", session.NumRanks(), d.Ranks())
	}
	var res Result
	if err := session.Run(LUProgram(d, cfg, &res)); err != nil {
		return Result{}, err
	}
	return res, nil
}
