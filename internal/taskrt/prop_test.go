package taskrt

import (
	"fmt"
	"testing"

	"vscc/internal/vscc"
)

// Property suite: random (seeded, deterministic) task DAGs are executed
// on a real simulated system, and every run is checked against an
// independent model of the dependence rules — the checker recomputes
// the expected dependence edges from the access declarations alone,
// without looking at the runtime's own edge lists.

// propSeeds is the seed table; every seed is one independently
// generated DAG, scheme and shape.
var propSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 42}

// genSpec generates a random region set and task list from a seed. The
// generator only uses splitmix64, so a seed names one DAG forever.
func genSpec(seed uint64) *Spec {
	n := func(salt, mod uint64) int { return int(splitmix64(seed^salt*0x9e3779b97f4a7c15) % mod) }
	sp := &Spec{}
	regions := 4 + n(1, 9)
	for i := 0; i < regions; i++ {
		h := splitmix64(seed + 100 + uint64(i))
		owner := -1
		if h&1 == 0 {
			owner = int(h>>1) % 4
		}
		sp.Regions = append(sp.Regions, SpecRegion{
			Name:  fmt.Sprintf("r%02d", i),
			Bytes: 8 << (h >> 8 % 10), // 8 B .. 4 KB
			Owner: owner,
		})
	}
	tasks := 10 + n(2, 31)
	for j := 0; j < tasks; j++ {
		st := SpecTask{Name: fmt.Sprintf("t%03d", j), Flops: float64(n(uint64(j)+500, 2000))}
		// A random non-empty subset of regions, each with a random mode.
		for i := 0; i < regions; i++ {
			h := splitmix64(seed ^ uint64(j+1)<<20 ^ uint64(i+1))
			if h%4 != 0 { // ~1/4 of regions per task
				continue
			}
			switch (h >> 2) % 3 {
			case 0:
				st.In = append(st.In, sp.Regions[i].Name)
			case 1:
				st.Out = append(st.Out, sp.Regions[i].Name)
			default:
				st.InOut = append(st.InOut, sp.Regions[i].Name)
			}
		}
		if len(st.In)+len(st.Out)+len(st.InOut) == 0 {
			st.In = append(st.In, sp.Regions[j%regions].Name)
		}
		sp.Tasks = append(sp.Tasks, st)
	}
	return sp
}

// modelEdges recomputes the expected dependence edges (pred, succ) from
// the spec's declarations, independently of the runtime: a reader
// depends on the latest writer; a writer depends on the latest writer
// and every reader since (RAW, WAW, WAR).
func modelEdges(sp *Spec) map[[2]int]bool {
	edges := make(map[[2]int]bool)
	type tail struct {
		lastWriter int
		readers    []int
	}
	tails := make(map[string]*tail)
	for _, r := range sp.Regions {
		tails[r.Name] = &tail{lastWriter: -1}
	}
	add := func(pred, succ int) {
		if pred >= 0 && pred != succ {
			edges[[2]int{pred, succ}] = true
		}
	}
	for j, t := range sp.Tasks {
		reads := append(append([]string{}, t.In...), t.InOut...)
		writes := append(append([]string{}, t.Out...), t.InOut...)
		for _, rn := range reads {
			add(tails[rn].lastWriter, j)
		}
		for _, rn := range writes {
			add(tails[rn].lastWriter, j)
			for _, rd := range tails[rn].readers {
				add(rd, j)
			}
			tails[rn].lastWriter = j
			tails[rn].readers = nil
		}
		for _, rn := range reads {
			tails[rn].readers = append(tails[rn].readers, j)
		}
	}
	return edges
}

// TestPropertyRandomDAGs runs every seed's DAG on a simulated system
// and asserts the three properties from the issue: order respects the
// declared region dependences, every task runs exactly once, and no
// dispatch (own-queue pop or steal) ran a task before readiness.
func TestPropertyRandomDAGs(t *testing.T) {
	var totalSteals int
	for _, seed := range propSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sp := genSpec(seed)
			scheme := allSchemes[splitmix64(seed+7)%uint64(len(allSchemes))]
			const ranks = 4

			ref := New(Config{})
			if err := sp.Build(ref, ranks); err != nil {
				t.Fatalf("Build(ref): %v", err)
			}
			if err := ref.RunSerial(ranks); err != nil {
				t.Fatalf("RunSerial: %v", err)
			}

			rt := New(Config{Scheme: scheme})
			if err := sp.Build(rt, ranks); err != nil {
				t.Fatalf("Build: %v", err)
			}
			// The spec's task count is the runtime's task count: the
			// generator adds no hidden tasks.
			if rt.NumTasks() != len(sp.Tasks) {
				t.Fatalf("runtime has %d tasks, spec %d", rt.NumTasks(), len(sp.Tasks))
			}
			if err := rt.Run(newSession(t, 2, ranks, scheme)); err != nil {
				t.Fatalf("Run (scheme %s): %v", scheme.Key(), err)
			}
			totalSteals += rt.Stats().Steals

			// Exactly once: every task id appears once in the
			// completion log and carries a worker and seq pair.
			seen := make([]int, rt.NumTasks())
			for _, id := range rt.execOrder {
				seen[id]++
			}
			for id, c := range seen {
				if c != 1 {
					t.Errorf("task %d executed %d times", id, c)
				}
				tk := rt.tasks[id]
				start, done := tk.startSeq, tk.doneSeq
				if tk.executedBy < 0 || tk.executedBy >= ranks || start <= 0 || done <= start {
					t.Errorf("task %d: worker=%d seqs=(%d,%d)", id, tk.executedBy, start, done)
				}
			}

			// Dependence respect + steal readiness: for every modelled
			// edge, the predecessor completed before the successor was
			// dispatched — regardless of which worker ran it or whether
			// it was stolen.
			for e := range modelEdges(sp) {
				pred, succ := rt.tasks[e[0]], rt.tasks[e[1]]
				pd := pred.doneSeq
				ss := succ.startSeq
				if pd >= ss {
					t.Errorf("edge %d->%d violated: pred done seq %d, succ start seq %d (succ worker %d)",
						e[0], e[1], pd, ss, succ.executedBy)
				}
			}

			// End state matches the serial reference byte for byte.
			if rt.StateHash() != ref.StateHash() {
				t.Errorf("seed %d on %s: hash diverges from serial reference", seed, scheme.Key())
			}
		})
	}
	// The suite as a whole must actually exercise stealing, or the
	// readiness property is vacuous.
	if totalSteals == 0 {
		t.Error("no steals across any property seed; generator too regular")
	}
}

// TestPropertySerialEquivalence cross-checks the generator itself: the
// same seed built twice yields identical specs and identical serial
// hashes (the generator is pure).
func TestPropertySerialEquivalence(t *testing.T) {
	for _, seed := range propSeeds {
		a, b := genSpec(seed), genSpec(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
		ra, rb := New(Config{}), New(Config{})
		if err := a.Build(ra, 3); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := b.Build(rb, 3); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := ra.RunSerial(3); err != nil {
			t.Fatalf("RunSerial: %v", err)
		}
		if err := rb.RunSerial(3); err != nil {
			t.Fatalf("RunSerial: %v", err)
		}
		if ra.StateHash() != rb.StateHash() {
			t.Fatalf("seed %d: serial hash not reproducible", seed)
		}
	}
}

// TestPropertyMoveAccounting: across the seed table, remote moves and
// move bytes reconcile with the per-class counters.
func TestPropertyMoveAccounting(t *testing.T) {
	for _, seed := range propSeeds[:3] {
		sp := genSpec(seed)
		rt := New(Config{Scheme: vscc.SchemeRemotePut})
		if err := sp.Build(rt, 4); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := rt.Run(newSession(t, 2, 4, vscc.SchemeRemotePut)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		st := rt.Stats()
		var classed int64
		for _, c := range st.Moves {
			classed += c
		}
		if classed == 0 || st.MovedBytes == 0 {
			t.Errorf("seed %d: no remote movement (%+v)", seed, st)
		}
		if st.Tasks != rt.NumTasks() {
			t.Errorf("seed %d: %d of %d tasks", seed, st.Tasks, rt.NumTasks())
		}
	}
}
