// Package trace records communication traffic between RCCE ranks and
// renders the paper's Fig. 8 style traffic matrix: each cell (x, y) is
// the volume sent from rank x to rank y, with inter-device blocks
// visually separated.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Matrix accumulates pairwise traffic volumes.
type Matrix struct {
	n     int
	bytes [][]uint64
	// ranksPerDevice delimits the device blocks for rendering (48 on a
	// full SCC).
	ranksPerDevice int
}

// NewMatrix creates an n-rank matrix; ranksPerDevice controls the
// inter-device block boundaries in reports (pass 0 to disable).
func NewMatrix(n, ranksPerDevice int) *Matrix {
	m := &Matrix{n: n, ranksPerDevice: ranksPerDevice}
	m.bytes = make([][]uint64, n)
	for i := range m.bytes {
		m.bytes[i] = make([]uint64, n)
	}
	return m
}

// Record adds one message. It is shaped to plug into
// rcce.WithTrafficObserver.
func (m *Matrix) Record(src, dest, bytes int) {
	if src < 0 || src >= m.n || dest < 0 || dest >= m.n {
		return
	}
	m.bytes[src][dest] += uint64(bytes)
}

// Bytes returns the volume sent from src to dest.
//
//lint:ignore deadcode npb's traffic tests and the root integration test read single cells with it
func (m *Matrix) Bytes(src, dest int) uint64 { return m.bytes[src][dest] }

// Total returns the overall volume.
func (m *Matrix) Total() uint64 {
	var t uint64
	for _, row := range m.bytes {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// MaxPair returns the heaviest (src, dest) pair and its volume — the
// paper reports ~186 MB for the 64-rank BT class C run.
func (m *Matrix) MaxPair() (src, dest int, bytes uint64) {
	for i, row := range m.bytes {
		for j, v := range row {
			if v > bytes {
				src, dest, bytes = i, j, v
			}
		}
	}
	return
}

// sameDevice reports whether two ranks share a device.
func (m *Matrix) sameDevice(a, b int) bool {
	if m.ranksPerDevice <= 0 {
		return true
	}
	return a/m.ranksPerDevice == b/m.ranksPerDevice
}

// InterDeviceBytes returns the volume crossing device boundaries — the
// bottleneck path of §4.2.
func (m *Matrix) InterDeviceBytes() uint64 {
	var t uint64
	for i, row := range m.bytes {
		for j, v := range row {
			if !m.sameDevice(i, j) {
				t += v
			}
		}
	}
	return t
}

// NeighborFraction returns the fraction of traffic between ranks within
// the given rank distance — BT's pattern is strongly neighbour-based
// ("the majority of data points are located close to the diagonal").
func (m *Matrix) NeighborFraction(maxDist int) float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	var near uint64
	for i, row := range m.bytes {
		for j, v := range row {
			d := i - j
			if d < 0 {
				d = -d
			}
			// The ring wraps: distance n-1 is a neighbour too.
			if wrap := m.n - d; wrap < d {
				d = wrap
			}
			if d <= maxDist {
				near += v
			}
		}
	}
	return float64(near) / float64(total)
}

// Render draws the matrix with one character per cell: ' ' none, then
// '.', ':', '+', '#' by volume relative to the maximum (dark = high,
// matching Fig. 8's shading). Device boundaries are drawn as grid lines.
func (m *Matrix) Render() string {
	_, _, max := m.MaxPair()
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix: %d ranks, total %.1f MB, inter-device %.1f MB\n",
		m.n, float64(m.Total())/1e6, float64(m.InterDeviceBytes())/1e6)
	glyph := func(v uint64) byte {
		if v == 0 {
			return ' '
		}
		switch f := float64(v) / float64(max); {
		case f > 0.75:
			return '#'
		case f > 0.5:
			return '+'
		case f > 0.25:
			return ':'
		default:
			return '.'
		}
	}
	boundary := func(i int) bool {
		return m.ranksPerDevice > 0 && i > 0 && i%m.ranksPerDevice == 0
	}
	// Header: x is the sender, y the receiver (per the paper's Fig. 8).
	b.WriteString("     x = sender, y = receiver; cell shade = volume\n")
	for y := 0; y < m.n; y++ {
		if boundary(y) {
			fmt.Fprintf(&b, "     %s\n", strings.Repeat("-", m.n+m.n/maxInt(1, m.ranksPerDevice)))
		}
		fmt.Fprintf(&b, "%4d ", y)
		for x := 0; x < m.n; x++ {
			if boundary(x) {
				b.WriteByte('|')
			}
			b.WriteByte(glyph(m.bytes[x][y]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CSV emits the matrix as src,dest,bytes rows (non-zero cells only),
// sorted for stable output.
func (m *Matrix) CSV() string {
	var b strings.Builder
	b.WriteString("src,dest,bytes\n")
	type cell struct{ s, d int }
	var cells []cell
	for i, row := range m.bytes {
		for j, v := range row {
			if v > 0 {
				cells = append(cells, cell{i, j})
			}
			_ = j
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].s != cells[b].s {
			return cells[a].s < cells[b].s
		}
		return cells[a].d < cells[b].d
	})
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%d,%d\n", c.s, c.d, m.bytes[c.s][c.d])
	}
	return b.String()
}
