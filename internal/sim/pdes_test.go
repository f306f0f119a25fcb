package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pdesTrace records one kernel's observable history: every message
// receipt with its timestamp and payload, in dispatch order. Two runs
// are considered identical when every kernel's trace matches.
type pdesTrace struct {
	lines []string
}

func (t *pdesTrace) log(format string, args ...any) {
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

// runPDESMesh builds nk kernels with one process each. Every process
// performs rounds of local delays and posts messages to a peer chosen
// by a deterministic LCG, with arrival exactly at the lookahead bound
// (the tightest legal schedule). It returns the per-kernel traces and
// final clocks.
func runPDESMesh(t *testing.T, nk, workers, rounds int, la Cycles) ([]pdesTrace, []Cycles) {
	t.Helper()
	pd := NewPDES(nk, la)
	traces := make([]pdesTrace, nk)
	for i := 0; i < nk; i++ {
		i := i
		k := pd.Kernel(i)
		k.Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
			rng := uint64(i)*2654435761 + 12345
			for r := 0; r < rounds; r++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				p.Delay(Cycles(rng%97) + 1)
				dst := int(rng>>33) % nk
				at := p.Now() + la + Cycles(rng%13)
				r, rng := r, rng
				pd.Post(i, at, dst, func() {
					traces[dst].log("recv at=%d from=%d round=%d tag=%x", pd.Kernel(dst).Now(), i, r, rng&0xffff)
				})
			}
		})
	}
	if err := pd.Run(workers); err != nil {
		t.Fatalf("pdes run (workers=%d): %v", workers, err)
	}
	clocks := make([]Cycles, nk)
	for i := range clocks {
		clocks[i] = pd.Kernel(i).Now()
	}
	return traces, clocks
}

// TestPDESWorkerCountInvariance is the engine-level identity gate: the
// observable history of every kernel must be byte-identical no matter
// how many workers drive the windows.
func TestPDESWorkerCountInvariance(t *testing.T) {
	const nk, rounds = 6, 200
	ref, refClocks := runPDESMesh(t, nk, 1, rounds, 50)
	for _, workers := range []int{2, 4, 8} {
		got, clocks := runPDESMesh(t, nk, workers, rounds, 50)
		for i := range ref {
			a := strings.Join(ref[i].lines, "\n")
			b := strings.Join(got[i].lines, "\n")
			if a != b {
				t.Fatalf("workers=%d kernel %d trace diverged from serial:\nserial:\n%s\nparallel:\n%s", workers, i, a, b)
			}
		}
		for i := range refClocks {
			if clocks[i] != refClocks[i] {
				t.Fatalf("workers=%d kernel %d clock %d != serial %d", workers, i, clocks[i], refClocks[i])
			}
		}
	}
}

// TestPDESLookaheadViolationPanics checks the conservative guarantee is
// enforced, not assumed.
func TestPDESLookaheadViolationPanics(t *testing.T) {
	pd := NewPDES(2, 100)
	pd.Kernel(0).Spawn("violator", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Post below the lookahead bound did not panic")
			}
		}()
		pd.Post(0, p.Now()+99, 1, func() {})
	})
	if err := pd.Run(1); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestPDESIdleKernelJumps: a kernel with no events must not stall the
// window progression — its clock follows the barrier.
func TestPDESIdleKernelJumps(t *testing.T) {
	pd := NewPDES(3, 10)
	done := Cycles(0)
	pd.Kernel(0).Spawn("worker", func(p *Proc) {
		p.Delay(1234)
		done = p.Now()
	})
	if err := pd.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
	if done != 1234 {
		t.Fatalf("worker finished at %d, want 1234", done)
	}
	// Idle kernels were dragged along by the barriers.
	for i := 1; i < 3; i++ {
		if pd.Kernel(i).Now() == 0 {
			t.Fatalf("idle kernel %d never advanced", i)
		}
	}
}

// TestPDESCrossKernelOrderIsCanonical: two senders posting to the same
// destination at the same arrival cycle must deliver in kernel-id
// order regardless of which worker ran first.
func TestPDESCrossKernelOrderIsCanonical(t *testing.T) {
	for _, workers := range []int{1, 3} {
		pd := NewPDES(3, 10)
		var got []int
		for src := range []int{0, 1} {
			src := src
			pd.Kernel(src).Spawn("sender", func(p *Proc) {
				pd.Post(src, p.Now()+10, 2, func() { got = append(got, src) })
				pd.Post(src, p.Now()+10, 2, func() { got = append(got, 10+src) })
			})
		}
		if err := pd.Run(workers); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := fmt.Sprint([]int{0, 10, 1, 11})
		if fmt.Sprint(got) != want {
			t.Fatalf("workers=%d delivery order %v, want %s", workers, got, want)
		}
	}
}

// TestPDESDeadlockAggregation: a blocked process on any kernel turns
// into an aggregated deadlock report naming its kernel.
func TestPDESDeadlockAggregation(t *testing.T) {
	pd := NewPDES(2, 10)
	c := NewCond(pd.Kernel(1), "never")
	pd.Kernel(1).Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := pd.Run(2)
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !strings.Contains(err.Error(), "kernel 1") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock report %q does not name the kernel and process", err)
	}
}

// TestPDESDaemonsDoNotDeadlock mirrors the single-kernel daemon
// semantics: blocked daemons never hold the run open.
func TestPDESDaemonsDoNotDeadlock(t *testing.T) {
	pd := NewPDES(2, 10)
	c := NewCond(pd.Kernel(0), "svc")
	pd.Kernel(0).SpawnDaemon("svc", func(p *Proc) { c.Wait(p) })
	pd.Kernel(1).Spawn("work", func(p *Proc) { p.Delay(5) })
	if err := pd.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// BenchmarkPDESThroughput measures cross-kernel event throughput of the
// barrier-window engine at 1/2/4 workers over 4 kernels. On a 1-CPU
// host the worker counts should be neutral (the harness serializes);
// scaling shows on multi-core hosts. The repository's benchmark records
// this shape as sim.pdes_round_ns.w1/.w2 (bench/baseline.json).
func BenchmarkPDESThroughput(b *testing.B) {
	const nk = 4
	const la = Cycles(100)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pd := NewPDES(nk, la)
			for i := 0; i < nk; i++ {
				i := i
				pd.Kernel(i).Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
					for r := 0; r < b.N; r++ {
						// Local work between barriers, then one cross post —
						// the fabric-dominated mix PDES is built for.
						for j := 0; j < 8; j++ {
							p.Delay(10)
						}
						pd.Post(i, p.Now()+la, (i+1)%nk, func() {})
					}
				})
			}
			b.ResetTimer()
			if err := pd.Run(workers); err != nil {
				b.Fatal(err)
			}
			var events float64
			for _, k := range pd.kernels {
				events += float64(k.Events())
			}
			b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(pd.Windows()), "windows")
		})
	}
}
