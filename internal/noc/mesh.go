// Package noc models a two-dimensional mesh network-on-chip with
// dimension-ordered (XY) routing, as used by the Intel SCC's 6x4 tile
// mesh. The model is latency-oriented: a transfer's duration is computed
// from hop count, per-hop router and link delay, and flit serialization.
// Shared serial resources (the system interface port, PCIe lanes) are
// modelled by Link, a latency-rate server that serializes concurrent
// transfers deterministically.
package noc

import (
	"fmt"

	"vscc/internal/sim"
)

// Coord addresses a tile in the mesh.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Params holds the mesh timing model in core clock cycles. The SCC mesh
// runs at 800 MHz against 533 MHz cores; the defaults below are already
// converted to core cycles.
type Params struct {
	// RouterCycles is the pipeline delay of one router traversal.
	RouterCycles sim.Cycles
	// LinkCycles is the wire delay of one inter-tile link.
	LinkCycles sim.Cycles
	// BytesPerFlit is the payload carried per flit.
	BytesPerFlit int
	// FlitCycles is the serialization delay per additional flit after the
	// head flit has arrived.
	FlitCycles sim.Cycles
	// InjectCycles is the fixed cost of entering/leaving the mesh through
	// the tile's mesh interface unit.
	InjectCycles sim.Cycles
}

// DefaultParams returns the SCC-calibrated mesh timing (533 MHz core,
// 800 MHz mesh: one mesh cycle = 2/3 core cycle, rounded up to integral
// core cycles per stage).
func DefaultParams() Params {
	return Params{
		RouterCycles: 3, // 4 mesh cycles per router, in core cycles
		LinkCycles:   1,
		BytesPerFlit: 16,
		FlitCycles:   2,
		InjectCycles: 4,
	}
}

// Mesh is a W x H tile grid.
type Mesh struct {
	W, H   int
	Params Params
}

// New returns a mesh of the given dimensions with timing p.
func New(w, h int, p Params) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh dimensions %dx%d", w, h))
	}
	return &Mesh{W: w, H: h, Params: p}
}

// Contains reports whether c is a valid tile coordinate.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// Hops returns the XY-routing hop count between two tiles.
func (m *Mesh) Hops(a, b Coord) int {
	m.check(a)
	m.check(b)
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// route returns the tile sequence of the XY (X first, then Y) path from a
// to b, inclusive of both endpoints.
func (m *Mesh) route(a, b Coord) []Coord {
	m.check(a)
	m.check(b)
	path := []Coord{a}
	cur := a
	for cur.X != b.X {
		if cur.X < b.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != b.Y {
		if cur.Y < b.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path
}

// flits returns the number of flits needed for a payload.
func (m *Mesh) flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + m.Params.BytesPerFlit - 1) / m.Params.BytesPerFlit
}

// TransferLatency returns the cycles for a payload of the given size to
// travel from tile a to tile b: head-flit latency across all hops plus
// serialization of the remaining flits.
func (m *Mesh) TransferLatency(a, b Coord, bytes int) sim.Cycles {
	hops := m.Hops(a, b)
	p := m.Params
	head := 2*p.InjectCycles + sim.Cycles(hops+1)*p.RouterCycles + sim.Cycles(hops)*p.LinkCycles
	tail := sim.Cycles(m.flits(bytes)-1) * p.FlitCycles
	return head + tail
}

// roundTripLatency returns the cycles for a request of reqBytes to tile b
// and a response of respBytes back to a — the cost shape of a remote MPB
// read.
func (m *Mesh) roundTripLatency(a, b Coord, reqBytes, respBytes int) sim.Cycles {
	return m.TransferLatency(a, b, reqBytes) + m.TransferLatency(b, a, respBytes)
}

func (m *Mesh) check(c Coord) {
	if !m.Contains(c) {
		panic(fmt.Sprintf("noc: tile %v outside %dx%d mesh", c, m.W, m.H))
	}
}
