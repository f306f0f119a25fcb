package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddMaxAt(t *testing.T) {
	var s Series
	s.Add(32, 10)
	s.Add(64, 25)
	s.Add(128, 15)
	if s.Max() != 25 {
		t.Errorf("max = %v", s.Max())
	}
	if len(s.Points) != 3 || s.Points[1] != (Point{64, 25}) {
		t.Errorf("points = %v, want the three adds in order", s.Points)
	}
	var empty Series
	if empty.Max() != 0 {
		t.Error("empty max != 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("mean/median = %v/%v", s.Mean, s.Median)
	}
	if math.Abs(s.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %v", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary not zero")
	}
}

func TestQuantile(t *testing.T) {
	// 1..100: quantiles interpolate over the order statistics.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01}, {-1, 1}, {2, 100},
	} {
		if got := quantileSorted(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantileSorted([]float64{7}, 0.99) != 7 {
		t.Error("single-sample quantile != the sample")
	}
	s := Summarize(xs)
	if s.P99 != quantileSorted(xs, 0.99) {
		t.Errorf("Summary.P99 = %v, want %v", s.P99, quantileSorted(xs, 0.99))
	}
	if s.Min > s.Median || s.Median > s.P99 || s.P99 > s.Max {
		t.Errorf("order statistics out of order: %+v", s)
	}
}

func TestTable(t *testing.T) {
	out := Table([][]string{{"size", "MB/s"}, {"32", "1.5"}, {"65536", "27.0"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Error("missing header rule")
	}
	if !strings.Contains(lines[3], "65536") || !strings.Contains(lines[3], "27.0") {
		t.Error("row content missing")
	}
	if Table(nil) != "" {
		t.Error("empty table should render empty")
	}
}

func TestRenderSeries(t *testing.T) {
	a := Series{Name: "rcce"}
	b := Series{Name: "ircce"}
	for x := 32.0; x <= 1024; x *= 2 {
		a.Add(x, x/10)
		b.Add(x, x/5)
	}
	out := RenderSeries("Fig 6a", "message size [B]", "MB/s", []Series{a, b}, 40, 10)
	if !strings.Contains(out, "a = rcce") || !strings.Contains(out, "b = ircce") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "Fig 6a") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("glyphs missing")
	}
}

// Property: Summarize bounds hold: min <= median <= max and min <= mean
// <= max.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
