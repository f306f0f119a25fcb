package npb

// The ADI sweeps. Every x/y/z slab contains exactly one cell of every
// rank (the multi-partition property), so a sweep is a sequence of q
// stages: at stage s each rank eliminates the lines of its slab-s cell,
// receiving the boundary (C', d') planes of the slab-(s-1) cell from its
// ring predecessor and sending its own last plane to the ring successor;
// back-substitution then flows the solution the other way.
//
// RCCE sends are synchronous, and at any stage every rank of a ring
// sends — a naive recv/compute/send order would deadlock on the wrapped
// ring. Ranks at odd ring positions therefore post the next stage's
// receive before their send ("early receive"). Every ring contains both
// parities, so at least one rank is receiving while its predecessor
// sends, and the chain of blocked sends always unwinds.

// forwardBoundaryBytes is C' (5x5) + d' (5) per line.
const forwardBoundaryBytes = (25 + 5) * 8

// backwardBoundaryBytes is the solution vector per line.
const backwardBoundaryBytes = 5 * 8

// sweep performs one pipelined block-tridiagonal solve along dim.
func (s *solver) sweep(dim Dim) {
	q := s.d.Q
	me := s.r.ID()
	prev := s.d.Neighbor(me, dim, -1)
	next := s.d.Neighbor(me, dim, +1)
	evenRing := s.ringParity(dim)%2 == 0

	if q == 1 {
		ce := s.cells[0]
		s.forwardCell(ce, dim, nil)
		s.backwardCell(ce, dim, nil)
		return
	}

	// Forward elimination, west to east.
	var pending []byte
	for stage := 0; stage < q; stage++ {
		c := s.cellAtSlab(dim, stage)
		ce := s.cells[c]
		in := pending
		pending = nil
		if stage > 0 && in == nil {
			in = s.recvBoundary(prev, ce.facePoints(dim)*forwardBoundaryBytes)
		}
		s.forwardCell(ce, dim, in)
		if stage < q-1 {
			out := s.packForwardBoundary(ce, dim)
			if !evenRing {
				// Early receive: unblock the predecessor's send before
				// issuing our own synchronous send.
				nextCell := s.cells[s.cellAtSlab(dim, stage+1)]
				pending = s.recvBoundary(prev, nextCell.facePoints(dim)*forwardBoundaryBytes)
			}
			if err := s.r.Send(next, out); err != nil {
				panic(err)
			}
		}
	}

	// Back substitution, east to west; the ring direction reverses.
	pending = nil
	for stage := q - 1; stage >= 0; stage-- {
		c := s.cellAtSlab(dim, stage)
		ce := s.cells[c]
		in := pending
		pending = nil
		if stage < q-1 && in == nil {
			in = s.recvBoundary(next, ce.facePoints(dim)*backwardBoundaryBytes)
		}
		s.backwardCell(ce, dim, in)
		if stage > 0 {
			out := s.packBackwardBoundary(ce, dim)
			if !evenRing {
				prevCell := s.cells[s.cellAtSlab(dim, stage-1)]
				pending = s.recvBoundary(next, prevCell.facePoints(dim)*backwardBoundaryBytes)
			}
			if err := s.r.Send(prev, out); err != nil {
				panic(err)
			}
		}
	}
}

// ringParity keys the deadlock-avoidance parity: the rank's position on
// the sweep ring.
func (s *solver) ringParity(dim Dim) int {
	pi, pj := s.d.RankCoord(s.r.ID())
	if dim == DimY {
		return pj
	}
	return pi // x and z rings both alternate pi
}

// cellAtSlab returns the index of this rank's cell in slab `slab` of dim.
func (s *solver) cellAtSlab(dim Dim, slab int) int {
	switch dim {
	case DimX:
		return s.d.CellWithX(s.r.ID(), slab)
	case DimY:
		return s.d.CellWithY(s.r.ID(), slab)
	default:
		return s.d.CellWithZ(s.r.ID(), slab)
	}
}

// recvBoundary receives one boundary message into the receive buffer.
func (s *solver) recvBoundary(from, bytes int) []byte {
	buf := s.recvBuf[:bytes]
	if err := s.r.Recv(from, buf); err != nil {
		panic(err)
	}
	return buf
}

// forwardCell eliminates all lines of a cell along dim. in carries the
// predecessor cell's last-plane (C', d') pairs, nil at the sweep start.
// It leaves the cell's C' planes in cp for back substitution and d' in
// rhs. In timing mode it only charges the modelled flops.
func (s *solver) forwardCell(ce *cell, dim Dim, in []byte) {
	s.chargeFlops(ce.points(), shareSolve*0.6)
	if s.cfg.Timing {
		return
	}
	n := ce.dimSize(dim)
	lines := ce.facePoints(dim)
	cp := ce.cp
	globalLast := ce.coordIn(dim) == s.d.Q-1
	off := 0
	for line := 0; line < lines; line++ {
		var prevCp Block
		var prevDp Vec5
		if in != nil {
			off = getBlock(in, off, &prevCp)
			off = getVec5(in, off, &prevDp)
		}
		for t := 0; t < n; t++ {
			i, j, k := ce.linePoint(dim, line, t)
			u := ce.u[ce.iu(i, j, k)]
			b := s.coefB(u)
			// B' = B - A*C'_{t-1}
			bp := subBlock(b, mulBlock(s.offA, prevCp))
			inv := invBlock(bp)
			cBlk := s.offA
			if globalLast && t == n-1 {
				cBlk = Block{} // no super-diagonal at the global edge
			}
			cpT := mulBlock(inv, cBlk)
			d := ce.rhs[ce.ir(i, j, k)]
			dp := mulVec(inv, subVec(d, mulVec(s.offA, prevDp)))
			cp[line*n+t] = cpT
			ce.rhs[ce.ir(i, j, k)] = dp
			prevCp, prevDp = cpT, dp
		}
	}
}

// packForwardBoundary serializes each line's last-plane (C', d').
func (s *solver) packForwardBoundary(ce *cell, dim Dim) []byte {
	lines := ce.facePoints(dim)
	buf := s.sendBuf[:lines*forwardBoundaryBytes]
	if s.cfg.Timing {
		return buf
	}
	n := ce.dimSize(dim)
	off := 0
	for line := 0; line < lines; line++ {
		i, j, k := ce.linePoint(dim, line, n-1)
		off = putBlock(buf, off, ce.cp[line*n+n-1])
		off = putVec5(buf, off, ce.rhs[ce.ir(i, j, k)])
	}
	return buf
}

// backwardCell substitutes x_t = d'_t - C'_t * x_{t+1} through the cell.
// in carries the successor cell's first-plane solutions, nil at the
// global east edge.
func (s *solver) backwardCell(ce *cell, dim Dim, in []byte) {
	s.chargeFlops(ce.points(), shareSolve*0.4)
	if s.cfg.Timing {
		return
	}
	n := ce.dimSize(dim)
	lines := ce.facePoints(dim)
	off := 0
	for line := 0; line < lines; line++ {
		var xNext Vec5
		if in != nil {
			off = getVec5(in, off, &xNext)
		}
		for t := n - 1; t >= 0; t-- {
			i, j, k := ce.linePoint(dim, line, t)
			dp := ce.rhs[ce.ir(i, j, k)]
			x := subVec(dp, mulVec(ce.cp[line*n+t], xNext))
			ce.rhs[ce.ir(i, j, k)] = x
			xNext = x
		}
	}
}

// packBackwardBoundary serializes each line's first-plane solution.
func (s *solver) packBackwardBoundary(ce *cell, dim Dim) []byte {
	lines := ce.facePoints(dim)
	buf := s.sendBuf[:lines*backwardBoundaryBytes]
	if s.cfg.Timing {
		return buf
	}
	off := 0
	for line := 0; line < lines; line++ {
		i, j, k := ce.linePoint(dim, line, 0)
		off = putVec5(buf, off, ce.rhs[ce.ir(i, j, k)])
	}
	return buf
}

// linePoint maps (line, t) to cell coordinates, t running along dim.
// The line ordering matches forEachFacePoint's plane ordering.
func (ce *cell) linePoint(dim Dim, line, t int) (i, j, k int) {
	switch dim {
	case DimX:
		return t, line % ce.ny, line / ce.ny
	case DimY:
		return line % ce.nx, t, line / ce.nx
	default:
		return line % ce.nx, line / ce.nx, t
	}
}

// coefB builds the diagonal block at a point from the local state: a
// strongly dominant diagonal with a state-dependent perturbation and a
// fixed component coupling, so the 5x5 eliminations are genuine.
func (s *solver) coefB(u Vec5) Block {
	b := identity(1 + 2*alphaCoef)
	for m := 0; m < 5; m++ {
		b[m][m] += diagEps * u[m]
		b[m][(m+2)%5] += coupleCoef
	}
	return b
}
