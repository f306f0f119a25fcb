// Package stats provides the small statistics helpers the benchmark
// harness uses: throughput series, summary statistics and fixed-width
// table rendering for terminal output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a measurement series, e.g. (message
// size, MB/s).
type Point struct {
	X float64
	Y float64
}

// Series is a named measurement curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Max returns the maximum Y value (0 for an empty series).
func (s *Series) Max() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

// Summary holds order statistics of a sample set — the shape benchmark
// reporting needs (min/median/p99/max) without ad-hoc math at the call
// sites.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Median         float64
	P99            float64
	StdDev         float64
}

// Summarize computes summary statistics.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	varSum := 0.0
	for _, x := range sorted {
		d := x - mean
		varSum += d * d
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Median: quantileSorted(sorted, 0.5),
		P99:    quantileSorted(sorted, 0.99),
		StdDev: math.Sqrt(varSum / float64(len(sorted))),
	}
}

// quantileSorted returns the q-th quantile (0 <= q <= 1) of an already
// sorted, non-empty sample set, linearly interpolating between order
// statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Table renders aligned columns for terminal output. The first row is
// the header.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RenderSeries draws one or more curves as an ASCII chart with a
// logarithmic X axis — the shape of the paper's Fig. 6 plots.
func RenderSeries(title, xlabel, ylabel string, series []Series, width, height int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxY := 0.0
	for _, s := range series {
		if m := s.Max(); m > maxY {
			maxY = m
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	minX, maxX := math.Inf(1), 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
		}
	}
	if minX <= 0 || math.IsInf(minX, 1) {
		minX = 1
	}
	if maxX <= minX {
		maxX = minX * 2
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	lx := func(x float64) int {
		f := (math.Log2(x) - math.Log2(minX)) / (math.Log2(maxX) - math.Log2(minX))
		c := int(f * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	for si, s := range series {
		glyph := byte('a' + si)
		for _, p := range s.Points {
			row := height - 1 - int(p.Y/maxY*float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][lx(p.X)] = glyph
		}
	}
	fmt.Fprintf(&b, "%8.1f +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "%8s |%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%8.1f +%s\n", 0.0, strings.Repeat("-", width))
	fmt.Fprintf(&b, "          %s (log) -> ; y: %s\n", xlabel, ylabel)
	for si, s := range series {
		fmt.Fprintf(&b, "          %c = %s\n", byte('a'+si), s.Name)
	}
	return b.String()
}
