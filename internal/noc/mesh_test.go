package noc

import (
	"testing"
	"testing/quick"

	"vscc/internal/sim"
)

func sccMesh() *Mesh { return New(6, 4, DefaultParams()) }

func TestHopsSelf(t *testing.T) {
	m := sccMesh()
	if h := m.Hops(Coord{2, 2}, Coord{2, 2}); h != 0 {
		t.Errorf("self hops = %d, want 0", h)
	}
}

func TestHopsManhattan(t *testing.T) {
	m := sccMesh()
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{5, 3}, 8},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{3, 0}, Coord{3, 3}, 3},
		{Coord{5, 1}, Coord{0, 1}, 5},
	}
	for _, c := range cases {
		if h := m.Hops(c.a, c.b); h != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, h, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := sccMesh()
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax) % m.W, int(ay) % m.H}
		b := Coord{int(bx) % m.W, int(by) % m.H}
		return m.Hops(a, b) == m.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteXYOrder(t *testing.T) {
	m := sccMesh()
	path := m.route(Coord{1, 1}, Coord{4, 3})
	want := []Coord{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {4, 2}, {4, 3}}
	if len(path) != len(want) {
		t.Fatalf("path len = %d, want %d (%v)", len(path), len(want), path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	m := sccMesh()
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax) % m.W, int(ay) % m.H}
		b := Coord{int(bx) % m.W, int(by) % m.H}
		return len(m.route(a, b)) == m.Hops(a, b)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferLatencyMonotonicInDistance(t *testing.T) {
	m := sccMesh()
	near := m.TransferLatency(Coord{0, 0}, Coord{1, 0}, 32)
	far := m.TransferLatency(Coord{0, 0}, Coord{5, 3}, 32)
	if far <= near {
		t.Errorf("far (%d) should exceed near (%d)", far, near)
	}
}

func TestTransferLatencyMonotonicInSize(t *testing.T) {
	m := sccMesh()
	a, b := Coord{0, 0}, Coord{3, 2}
	prev := sim.Cycles(0)
	for _, size := range []int{8, 32, 256, 4096} {
		l := m.TransferLatency(a, b, size)
		if l < prev {
			t.Errorf("latency for %dB (%d) < latency for smaller payload (%d)", size, l, prev)
		}
		prev = l
	}
}

func TestTransferLatencyOnChipClass(t *testing.T) {
	// The paper (§3) places on-chip communication latency at ~100 core
	// cycles; a cross-mesh 32 B transfer must stay in that class.
	m := sccMesh()
	l := m.TransferLatency(Coord{0, 0}, Coord{5, 3}, 32)
	if l < 20 || l > 200 {
		t.Errorf("cross-chip 32B latency = %d cycles, want within on-chip class [20,200]", l)
	}
}

func TestRoundTripLatency(t *testing.T) {
	m := sccMesh()
	a, b := Coord{0, 0}, Coord{2, 1}
	rt := m.roundTripLatency(a, b, 8, 32)
	if want := m.TransferLatency(a, b, 8) + m.TransferLatency(b, a, 32); rt != want {
		t.Errorf("round trip = %d, want %d", rt, want)
	}
}

func TestMeshBoundsPanic(t *testing.T) {
	m := sccMesh()
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds coordinate did not panic")
		}
	}()
	m.Hops(Coord{0, 0}, Coord{6, 0})
}

func TestContains(t *testing.T) {
	m := sccMesh()
	if !m.Contains(Coord{5, 3}) {
		t.Error("corner should be contained")
	}
	if m.Contains(Coord{-1, 0}) || m.Contains(Coord{0, 4}) {
		t.Error("out-of-range coordinate reported as contained")
	}
}

func TestNewInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,4) did not panic")
		}
	}()
	New(0, 4, DefaultParams())
}

func TestLinkSerializesTransfers(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink("sif", 10, 1.0) // 1 byte/cycle
	var done [2]sim.Cycles
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("xfer", func(p *sim.Proc) {
			l.Transfer(p, 100)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First: 100 occupancy + 10 latency = 110. Second starts when channel
	// frees at 100, so 200 + 10 = 210.
	if done[0] != 110 {
		t.Errorf("first transfer done at %d, want 110", done[0])
	}
	if done[1] != 210 {
		t.Errorf("second transfer done at %d, want 210", done[1])
	}
}

func TestLinkOccupancyFractionalBandwidth(t *testing.T) {
	l := NewLink("slow", 0, 0.25) // 4 cycles per byte
	if occ := l.OccupancyFor(100); occ != 400 {
		t.Errorf("occupancy = %d, want 400", occ)
	}
	if occ := l.OccupancyFor(0); occ != 0 {
		t.Errorf("zero-byte occupancy = %d, want 0", occ)
	}
}

func TestLinkStats(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink("l", 5, 2.0)
	k.Spawn("a", func(p *sim.Proc) { l.Transfer(p, 64) })
	k.Spawn("b", func(p *sim.Proc) { l.Transfer(p, 64) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Transfers != 2 || s.BytesTotal != 128 {
		t.Errorf("stats = %+v, want 2 transfers / 128 bytes", s)
	}
	if s.WaitedCycles == 0 {
		t.Error("second transfer should have queued")
	}
}

func TestLinkEarliestCompletion(t *testing.T) {
	l := NewLink("l", 7, 1.0)
	if got := l.earliestCompletion(100, 50); got != 157 {
		t.Errorf("earliestCompletion = %d, want 157", got)
	}
}

// Property: transfer latency is additive-monotone: latency(a,c) <=
// latency via any intermediate forwarding (triangle inequality for XY
// metric distances on the mesh holds for hop counts).
func TestPropertyHopsTriangle(t *testing.T) {
	m := sccMesh()
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := Coord{int(ax) % m.W, int(ay) % m.H}
		b := Coord{int(bx) % m.W, int(by) % m.H}
		c := Coord{int(cx) % m.W, int(cy) % m.H}
		return m.Hops(a, c) <= m.Hops(a, b)+m.Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
