package taskrt

import (
	"strings"
	"testing"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// newSession builds a fresh system and session for one taskrt run.
func newSession(t testing.TB, devices, ranks int, scheme vscc.Scheme) *rcce.Session {
	t.Helper()
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: devices, Scheme: scheme})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Round-robin placement across devices, so worker traffic (steals,
	// doorbells, staging) crosses the fabric rather than staying on
	// device 0 as a linear 4-rank placement would.
	places := make([]rcce.Place, ranks)
	for i := range places {
		places[i] = rcce.Place{Dev: i % devices, Core: i / devices}
	}
	session, err := sys.NewSessionAt(places)
	if err != nil {
		t.Fatalf("NewSessionAt: %v", err)
	}
	return session
}

// runWorkload builds a workload and runs it on a fresh session,
// returning the runtime for inspection.
func runWorkload(t *testing.T, workload string, size, iters, devices, ranks int, scheme vscc.Scheme) *Runtime {
	t.Helper()
	rt := New(Config{Scheme: scheme})
	if err := Build(rt, workload, size, iters, ranks); err != nil {
		t.Fatalf("Build(%s): %v", workload, err)
	}
	if err := rt.Run(newSession(t, devices, ranks, scheme)); err != nil {
		t.Fatalf("Run(%s): %v", workload, err)
	}
	return rt
}

// serialHash runs the workload's pure-Go reference and returns its hash.
func serialHash(t *testing.T, workload string, size, iters, ranks int) string {
	t.Helper()
	rt := New(Config{})
	if err := Build(rt, workload, size, iters, ranks); err != nil {
		t.Fatalf("Build(%s): %v", workload, err)
	}
	if err := rt.RunSerial(ranks); err != nil {
		t.Fatalf("RunSerial(%s): %v", workload, err)
	}
	return rt.StateHash()
}

// allSchemes is every communication scheme of the paper (plus the
// routing baseline prototype).
var allSchemes = []vscc.Scheme{
	vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeHWAccel,
	vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA,
}

// TestWorkloadsMatchSerialAcrossSchemes is the core correctness bar:
// every workload, on every communication scheme, ends with regions
// byte-identical to the pure-Go serial reference.
func TestWorkloadsMatchSerialAcrossSchemes(t *testing.T) {
	const ranks = 4
	for _, wl := range Workloads() {
		size, iters := 3, 4
		if wl == "kv" {
			size, iters = 5, 24
		}
		want := serialHash(t, wl, size, iters, ranks)
		for _, scheme := range allSchemes {
			rt := runWorkload(t, wl, size, iters, 2, ranks, scheme)
			if got := rt.StateHash(); got != want {
				t.Errorf("%s on %s: hash %s, serial reference %s", wl, scheme.Key(), got, want)
			}
			if rt.Stats().Tasks != rt.NumTasks() {
				t.Errorf("%s on %s: executed %d of %d tasks", wl, scheme.Key(), rt.Stats().Tasks, rt.NumTasks())
			}
		}
	}
}

// TestCholeskyFactorizes checks the numerics: L·Lᵀ reconstructs the
// input matrix within float tolerance.
func TestCholeskyFactorizes(t *testing.T) {
	const tiles, b, ranks = 2, 4, 2
	rt := New(Config{Scheme: vscc.SchemeVDMA})
	if err := BuildCholesky(rt, tiles, b, ranks); err != nil {
		t.Fatalf("BuildCholesky: %v", err)
	}
	if err := rt.Run(newSession(t, 2, ranks, vscc.SchemeVDMA)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	n := tiles * b
	l := make([][]float64, n)
	for r := range l {
		l[r] = make([]float64, n)
	}
	for i := 0; i < tiles; i++ {
		for j := 0; j <= i; j++ {
			rg, ok := rt.RegionByName("A." + itoa(i) + "." + itoa(j))
			if !ok {
				t.Fatalf("tile %d,%d missing", i, j)
			}
			buf := rg.data
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					l[i*b+r][j*b+c] = getF(buf, r*b+c)
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			var v float64
			for p := 0; p < n; p++ {
				v += l[r][p] * l[c][p]
			}
			want := choleskyInput(r, c, n)
			if d := v - want; d > 1e-9 || d < -1e-9 {
				t.Fatalf("LLᵀ[%d][%d] = %g, want %g", r, c, v, want)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMoveClassesExercised checks one run touches all three move
// strategies: the stencil mixes 128 B edges with multi-KB bodies.
func TestMoveClassesExercised(t *testing.T) {
	rt := New(Config{Scheme: vscc.SchemeVDMA})
	// 8-wide edges (64 B ≤ vdma's 64 B direct cutoff), 1 KB strip
	// bodies (cached-MPB), and a 16 KB extra region forced over the MPB
	// split for the vDMA class.
	if err := BuildStencil(rt, 8, 16, 4, 2, 4); err != nil {
		t.Fatalf("BuildStencil: %v", err)
	}
	big, err := rt.Region("bulk", 16*1024, 1)
	if err != nil {
		t.Fatalf("Region: %v", err)
	}
	if _, err := rt.AddTask("bulkwrite", 0, []Access{Out(big)}, nil); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if _, err := rt.AddTask("bulkread", 0, []Access{In(big)}, nil); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if err := rt.Run(newSession(t, 2, 4, vscc.SchemeVDMA)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	for class := vscc.MoveDirect; class <= vscc.MoveVDMA; class++ {
		if st.Moves[class] == 0 {
			t.Errorf("move class %s never used: %+v", class, st)
		}
	}
	if st.MovedBytes == 0 || st.LocalMoves == 0 {
		t.Errorf("movement accounting empty: %+v", st)
	}
}

// TestRerunIdentical reruns the same workload and compares every
// observable: hash, completion order, per-task workers, stats, cycles.
func TestRerunIdentical(t *testing.T) {
	run := func() (*Runtime, sim.Cycles) {
		rt := New(Config{Scheme: vscc.SchemeCachedGet})
		if err := Build(rt, "kv", 4, 32, 4); err != nil {
			t.Fatalf("Build: %v", err)
		}
		session := newSession(t, 2, 4, vscc.SchemeCachedGet)
		if err := rt.Run(session); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rt, session.Chip(0).Kernel.Now()
	}
	a, acyc := run()
	b, bcyc := run()
	if a.StateHash() != b.StateHash() {
		t.Errorf("hash differs across reruns")
	}
	if acyc != bcyc {
		t.Errorf("end cycle differs: %d vs %d", acyc, bcyc)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	ao, bo := a.execOrder, b.execOrder
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("exec order differs at %d: task %d vs %d", i, ao[i], bo[i])
		}
	}
	for id := 0; id < a.NumTasks(); id++ {
		if a.tasks[id].executedBy != b.tasks[id].executedBy {
			t.Fatalf("task %d worker differs: %d vs %d", id, a.tasks[id].executedBy, b.tasks[id].executedBy)
		}
	}
}

// TestGraphValidation exercises the construction error paths.
func TestGraphValidation(t *testing.T) {
	rt := New(Config{})
	rg, err := rt.Region("r", 64, -1)
	if err != nil {
		t.Fatalf("Region: %v", err)
	}
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"empty region name", func() error { _, err := rt.Region("", 1, -1); return err }, "empty name"},
		{"dup region", func() error { _, err := rt.Region("r", 1, -1); return err }, "duplicate"},
		{"zero size", func() error { _, err := rt.Region("z", 0, -1); return err }, "outside"},
		{"huge size", func() error { _, err := rt.Region("h", MaxRegionBytes+1, -1); return err }, "outside"},
		{"bad owner", func() error { _, err := rt.Region("o", 1, -2); return err }, "owner"},
		{"empty task name", func() error { _, err := rt.AddTask("", 0, nil, nil); return err }, "empty name"},
		{"negative flops", func() error { _, err := rt.AddTask("t", -1, nil, nil); return err }, "negative flops"},
		{"nil region", func() error { _, err := rt.AddTask("t", 0, []Access{{}}, nil); return err }, "no region"},
		{"dup access", func() error {
			_, err := rt.AddTask("t", 0, []Access{In(rg), Out(rg)}, nil)
			return err
		}, "twice"},
		{"foreign region", func() error {
			other := New(Config{})
			org, _ := other.Region("x", 8, -1)
			_, err := rt.AddTask("t", 0, []Access{In(org)}, nil)
			return err
		}, "another runtime"},
	} {
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := rt.RunSerial(2); err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	if _, err := rt.Region("late", 1, -1); err == nil {
		t.Error("region after Run accepted")
	}
	if _, err := rt.AddTask("late", 0, nil, nil); err == nil {
		t.Error("task after Run accepted")
	}
	if err := rt.RunSerial(2); err == nil {
		t.Error("second run accepted (runtime is single-use)")
	}
	if err := New(Config{}).RunSerial(0); err == nil {
		t.Error("zero workers accepted")
	}
	bad := New(Config{})
	if _, err := bad.Region("r", 8, 7); err != nil {
		t.Fatalf("Region: %v", err)
	}
	if err := bad.RunSerial(2); err == nil {
		t.Error("owner outside worker count accepted")
	}
}

// TestModeAndClassStrings pins the enum names used in metrics.
func TestModeAndClassStrings(t *testing.T) {
	for want, got := range map[string]string{
		"in": ModeIn.String(), "out": ModeOut.String(), "inout": ModeInOut.String(),
		"invalid": AccessMode(9).String(),
	} {
		if got != want {
			t.Errorf("mode string %q, want %q", got, want)
		}
	}
	for _, tc := range []struct {
		scheme vscc.Scheme
		bytes  int
		want   vscc.MoveClass
	}{
		{vscc.SchemeVDMA, 64, vscc.MoveDirect},
		{vscc.SchemeVDMA, 65, vscc.MoveCachedMPB},
		{vscc.SchemeRouting, 32, vscc.MoveDirect},
		{vscc.SchemeRouting, 33, vscc.MoveCachedMPB},
		{vscc.SchemeRemotePut, 128, vscc.MoveDirect},
		{vscc.SchemeCachedGet, vscc.MPBSplitBytes, vscc.MoveCachedMPB},
		{vscc.SchemeCachedGet, vscc.MPBSplitBytes + 1, vscc.MoveVDMA},
	} {
		if got := vscc.ClassifyMove(tc.scheme, tc.bytes); got != tc.want {
			t.Errorf("ClassifyMove(%s, %d) = %s, want %s", tc.scheme.Key(), tc.bytes, got, tc.want)
		}
	}
	if vscc.MoveClass(9).String() != "invalid" {
		t.Error("invalid class string")
	}
}

// TestBuildErrors covers workload parameter validation.
func TestBuildErrors(t *testing.T) {
	if err := Build(New(Config{}), "nope", 1, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := BuildCholesky(New(Config{}), 0, 4, 1); err == nil {
		t.Error("cholesky tiles=0 accepted")
	}
	if err := BuildStencil(New(Config{}), 4, 1, 1, 1, 1); err == nil {
		t.Error("stencil rows=1 accepted")
	}
	if err := BuildKV(New(Config{}), 1, 32, 1, 1, 1); err == nil {
		t.Error("kv shardBytes=32 accepted")
	}
}
