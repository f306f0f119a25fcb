package npb

import (
	"math"
	"testing"
	"testing/quick"

	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

func TestClassLookup(t *testing.T) {
	c, err := ClassByName("C")
	if err != nil || c.N != 162 || c.Iterations != 200 {
		t.Fatalf("class C = %+v, %v", c, err)
	}
	if _, err := ClassByName("Z"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDecompValidation(t *testing.T) {
	if _, err := NewDecomp(12, 5); err == nil {
		t.Error("non-square rank count accepted")
	}
	if _, err := NewDecomp(3, 16); err == nil {
		t.Error("q > N accepted")
	}
	d, err := NewDecomp(162, 225)
	if err != nil {
		t.Fatal(err)
	}
	if d.Q != 15 {
		t.Errorf("q = %d, want 15", d.Q)
	}
}

func TestDecompSizesSumToN(t *testing.T) {
	for _, c := range []struct{ n, ranks int }{{12, 4}, {12, 9}, {162, 64}, {162, 225}, {24, 16}} {
		d, err := NewDecomp(c.n, c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i := 0; i < d.Q; i++ {
			sum += d.Size(i)
			if i > 0 && d.Start(i) != d.Start(i-1)+d.Size(i-1) {
				t.Errorf("n=%d ranks=%d: starts not contiguous", c.n, c.ranks)
			}
		}
		if sum != c.n {
			t.Errorf("n=%d ranks=%d: sizes sum to %d", c.n, c.ranks, sum)
		}
	}
}

func TestMultiPartitionProperties(t *testing.T) {
	d, err := NewDecomp(162, 64)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Q
	// Every cell owned exactly once; every rank owns one cell per slab in
	// every dimension.
	owned := map[[3]int]int{}
	for rank := 0; rank < d.Ranks(); rank++ {
		seenX, seenY, seenZ := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for c := 0; c < q; c++ {
			cx, cy, cz := d.CellCoord(rank, c)
			key := [3]int{cx, cy, cz}
			if prev, dup := owned[key]; dup {
				t.Fatalf("cell %v owned by both %d and %d", key, prev, rank)
			}
			owned[key] = rank
			if d.ownerOf(cx, cy, cz) != rank {
				t.Fatalf("ownerOf(%v) != %d", key, rank)
			}
			seenX[cx] = true
			seenY[cy] = true
			seenZ[cz] = true
		}
		if len(seenX) != q || len(seenY) != q || len(seenZ) != q {
			t.Fatalf("rank %d does not cover every slab", rank)
		}
	}
	if len(owned) != q*q*q {
		t.Fatalf("owned %d cells, want %d", len(owned), q*q*q)
	}
}

func TestNeighborMatchesAdjacentCellOwner(t *testing.T) {
	d, _ := NewDecomp(64, 16)
	q := d.Q
	for rank := 0; rank < d.Ranks(); rank++ {
		for c := 0; c < q; c++ {
			cx, cy, cz := d.CellCoord(rank, c)
			if cx < q-1 {
				if want, got := d.ownerOf(cx+1, cy, cz), d.Neighbor(rank, DimX, +1); want != got {
					t.Fatalf("x+ neighbor of rank %d: %d != %d", rank, got, want)
				}
			}
			if cy > 0 {
				if want, got := d.ownerOf(cx, cy-1, cz), d.Neighbor(rank, DimY, -1); want != got {
					t.Fatalf("y- neighbor of rank %d: %d != %d", rank, got, want)
				}
			}
			if cz < q-1 {
				if want, got := d.ownerOf(cx, cy, cz+1), d.Neighbor(rank, DimZ, +1); want != got {
					t.Fatalf("z+ neighbor of rank %d: %d != %d", rank, got, want)
				}
			}
		}
	}
}

func TestCellAtSlabConsistent(t *testing.T) {
	d, _ := NewDecomp(24, 9)
	for rank := 0; rank < d.Ranks(); rank++ {
		for slab := 0; slab < d.Q; slab++ {
			c := d.CellWithX(rank, slab)
			cx, _, _ := d.CellCoord(rank, c)
			if cx != slab {
				t.Fatalf("CellWithX(%d,%d) = cell %d at cx=%d", rank, slab, c, cx)
			}
			c = d.CellWithY(rank, slab)
			_, cy, _ := d.CellCoord(rank, c)
			if cy != slab {
				t.Fatalf("CellWithY wrong")
			}
		}
	}
}

func TestSquareCounts(t *testing.T) {
	got := SquareCounts(240)
	want := []int{4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144, 169, 196, 225}
	if len(got) != len(want) {
		t.Fatalf("counts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestInvBlockProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Build a dominant block from the seed.
		var b Block
		x := seed
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x%1000) / 5000 // [-0.2, 0.2)
		}
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				b[i][j] = next()
			}
			b[i][i] += 2 // dominance
		}
		inv := invBlock(b)
		prod := mulBlock(b, inv)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i][j]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// runBT runs the solver on a single chip with the given rank count.
func runBT(t *testing.T, class Class, ranks, iters int, timing bool) Result {
	t.Helper()
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, err := rcce.LinearPlaces([]*scc.Chip{chip}, ranks)
	if err != nil {
		t.Fatal(err)
	}
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecomp(class.N, ranks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(session, d, Config{Class: class, Iterations: iters, Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSerialVsParallelChecksums(t *testing.T) {
	// The heart of the verification: 1, 4 and 9 ranks must compute the
	// same solution up to floating-point reduction order.
	const iters = 3
	ref := runBT(t, ClassS, 1, iters, false)
	if ref.Checksum == (Vec5{}) {
		t.Fatal("zero checksum — solver did nothing")
	}
	for _, ranks := range []int{4, 9} {
		got := runBT(t, ClassS, ranks, iters, false)
		for m := 0; m < 5; m++ {
			rel := math.Abs(got.Checksum[m]-ref.Checksum[m]) / math.Abs(ref.Checksum[m])
			if rel > 1e-9 {
				t.Errorf("%d ranks: checksum[%d] = %.15g vs serial %.15g (rel %.2e)",
					ranks, m, got.Checksum[m], ref.Checksum[m], rel)
			}
		}
	}
}

func TestChecksumEvolves(t *testing.T) {
	// The solution must actually change over iterations (the solver is
	// not a no-op).
	one := runBT(t, ClassS, 4, 1, false)
	three := runBT(t, ClassS, 4, 3, false)
	same := true
	for m := 0; m < 5; m++ {
		if one.Checksum[m] != three.Checksum[m] {
			same = false
		}
	}
	if same {
		t.Error("checksum identical after 1 and 3 iterations")
	}
}

func TestCrossDeviceBTMatchesSingleChip(t *testing.T) {
	// Data integrity through the vSCC host paths: a 4-rank class S run
	// spread over two devices must produce the single-chip checksum.
	ref := runBT(t, ClassS, 4, 2, false)
	for _, scheme := range []vscc.Scheme{vscc.SchemeVDMA, vscc.SchemeCachedGet, vscc.SchemeRemotePut} {
		k := sim.NewKernel()
		sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		// Two ranks per device.
		places := []rcce.Place{{Dev: 0, Core: 0}, {Dev: 0, Core: 1}, {Dev: 1, Core: 0}, {Dev: 1, Core: 1}}
		session, err := sys.NewSessionAt(places)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := NewDecomp(ClassS.N, 4)
		res, err := RunOn(session, d, Config{Class: ClassS, Iterations: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for m := 0; m < 5; m++ {
			rel := math.Abs(res.Checksum[m]-ref.Checksum[m]) / math.Abs(ref.Checksum[m])
			if rel > 1e-9 {
				t.Errorf("%v: checksum[%d] differs by %.2e", scheme, m, rel)
			}
		}
	}
}

func TestTimingModeMatchesRealTraffic(t *testing.T) {
	// Timing mode must exchange exactly the messages of the real solver.
	capture := func(timing bool) *trace.Matrix {
		k := sim.NewKernel()
		chip := scc.NewChip(k, 0, scc.DefaultParams())
		places, _ := rcce.LinearPlaces([]*scc.Chip{chip}, 9)
		m := trace.NewMatrix(9, 0)
		session, err := rcce.NewSession(k, []*scc.Chip{chip}, places, rcce.WithTrafficObserver(m.Record))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := NewDecomp(ClassS.N, 9)
		if _, err := RunOn(session, d, Config{Class: ClassS, Iterations: 2, Timing: timing}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	real := capture(false)
	timing := capture(true)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if real.Bytes(i, j) != timing.Bytes(i, j) {
				t.Errorf("traffic[%d][%d]: real %d vs timing %d", i, j, real.Bytes(i, j), timing.Bytes(i, j))
			}
		}
	}
	if real.Total() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestTimingModeFaster(t *testing.T) {
	// Timing mode must be much cheaper in wall-clock but report the same
	// simulated-communication structure; here we just check it runs and
	// produces a positive rate.
	res := runBT(t, ClassS, 4, 2, true)
	if res.GFlops <= 0 {
		t.Errorf("timing-mode GFlops = %v", res.GFlops)
	}
}

func TestGFlopsScalesWithRanks(t *testing.T) {
	// More ranks must run faster (class W is big enough for 9 ranks to
	// beat 4 clearly on a single chip).
	r4 := runBT(t, ClassW, 4, 2, true)
	r9 := runBT(t, ClassW, 9, 2, true)
	r16 := runBT(t, ClassW, 16, 2, true)
	if !(r16.GFlops > r9.GFlops && r9.GFlops > r4.GFlops) {
		t.Errorf("no scaling: 4->%.3f 9->%.3f 16->%.3f GFLOP/s", r4.GFlops, r9.GFlops, r16.GFlops)
	}
}

func TestTrafficPatternNeighborly(t *testing.T) {
	// Fig. 8's qualitative claim: the BT pattern is neighbour-based with
	// ring wraps; most traffic sits close to the diagonal.
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, _ := rcce.LinearPlaces([]*scc.Chip{chip}, 16)
	m := trace.NewMatrix(16, 0)
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places, rcce.WithTrafficObserver(m.Record))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDecomp(24, 16)
	if _, err := RunOn(session, d, Config{Class: ClassW, Iterations: 1, Timing: true}); err != nil {
		t.Fatal(err)
	}
	// q=4: neighbours at rank distance 1 (x), 4 (y) and 5 (z) with wraps.
	if frac := m.NeighborFraction(5); frac < 0.95 {
		t.Errorf("neighbour fraction = %.2f, want >= 0.95", frac)
	}
	src, dest, bytes := m.MaxPair()
	if bytes == 0 {
		t.Fatal("empty matrix")
	}
	t.Logf("max pair %d->%d: %.2f MB", src, dest, float64(bytes)/1e6)
}

func TestMessageVolumePrediction(t *testing.T) {
	// The analytic per-iteration x-neighbour volume must match the
	// simulated traffic: run 1 iteration, compare rank 0 -> x-neighbour.
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, _ := rcce.LinearPlaces([]*scc.Chip{chip}, 9)
	m := trace.NewMatrix(9, 0)
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places, rcce.WithTrafficObserver(m.Record))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDecomp(12, 9)
	if _, err := RunOn(session, d, Config{Class: ClassS, Iterations: 1, Timing: true}); err != nil {
		t.Fatal(err)
	}
	xNbr := d.Neighbor(0, DimX, +1)
	got := m.Bytes(0, xNbr)
	want := uint64(d.messageVolume(0))
	// The measured volume also includes the y/z traffic if the x
	// neighbour coincides; for q=3 the x/y/z neighbours are distinct.
	if got < want {
		t.Errorf("rank0->%d volume %d below prediction %d", xNbr, got, want)
	}
	if got > want*2 {
		t.Errorf("rank0->%d volume %d far above prediction %d", xNbr, got, want)
	}
}

func TestClassCSixtyFourRankVolumeMatchesPaper(t *testing.T) {
	// Paper §4.2: "the maximum communication traffic between two ranks is
	// about 186 MB" for class C, 64 ranks, 200 iterations. Check the
	// analytic prediction (copy_faces + forward boundary + the backward
	// flow from the neighbour's perspective).
	d, err := NewDecomp(162, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Max over ranks of the one-directional volume, plus the backward
	// boundary that flows on the same matrix cell (sent by the neighbour
	// during back substitution of the reverse ring... counted for the
	// heaviest pair as forward volume only).
	maxVol := 0
	for rank := 0; rank < 64; rank++ {
		if v := d.messageVolume(rank); v > maxVol {
			maxVol = v
		}
	}
	totalMB := float64(maxVol) * 200 / 1e6
	if totalMB < 120 || totalMB > 260 {
		t.Errorf("max pair volume = %.0f MB for 200 iterations, want the paper's ~186 MB class", totalMB)
	}
	t.Logf("predicted max pair volume: %.1f MB (paper: ~186 MB)", totalMB)
}

// ownerOf returns the rank owning the cell at (cx, cy, cz): the inverse
// of CellCoord, the oracle the neighbour tests check Neighbor against.
func (d *Decomp) ownerOf(cx, cy, cz int) int {
	return d.RankAt(cx-cz, cy-cz)
}

// messageVolume predicts the per-iteration communication volume in bytes
// between a rank and its +x neighbour — the heaviest pair of the traffic
// matrix (copy_faces plus both sweep boundary flows): the analytic side
// of the measured-matrix check and of the paper's ~186 MB figure for 64
// ranks, class C, 200 iterations.
func (d *Decomp) messageVolume(rank int) int {
	total := 0
	for c := 0; c < d.Q; c++ {
		cx, cy, cz := d.CellCoord(rank, c)
		if cx >= d.Q-1 {
			continue // no east neighbour for this cell
		}
		face := d.Size(cy) * d.Size(cz)
		total += face * 5 * 8                // copy_faces east face
		total += face * forwardBoundaryBytes // forward elimination boundary
		// The backward boundary flows the other way (from the +x
		// neighbour to us) and lands on their row of the matrix.
	}
	return total
}
