package sim

// Conservative parallel discrete-event simulation (PDES) over a set of
// kernels, synchronized with barrier windows (DESIGN.md §9).
//
// The model is classic conservative PDES specialized to the vSCC
// topology: every cross-kernel interaction crosses the PCIe fabric,
// whose link latency L is a hard lower bound on how far in the future a
// kernel can affect any other. That bound is the lookahead. Time is cut
// into windows [T, T+L-1] where T is the earliest pending event on any
// kernel; within a window every kernel runs independently (in parallel,
// on its own goroutine) because no message sent inside the window can
// arrive inside it. At the window barrier the engine collects every
// posted cross-kernel message, delivers the batch in a canonical order
// — (arrival time, sender kernel, per-sender sequence) — and opens the
// next window.
//
// Barrier windows were chosen over null messages deliberately: null
// messages optimize for sparse topologies where lookahead varies per
// link, but here every pair of kernels is coupled through the same
// fabric with the same L, so per-link null messages degenerate into an
// all-pairs broadcast that a single barrier replaces outright — and the
// barrier makes determinism trivial to prove: delivery order depends
// only on message content, never on worker scheduling.
//
// Determinism: each kernel is internally deterministic (one process
// at a time, FIFO same-cycle order). Outboxes are per-sender and
// single-writer; the merge sort key is independent of wall-clock
// interleaving. Therefore a run with W workers is byte-identical to a
// run with 1 worker, for any W.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// xmsg is one cross-kernel message: fn runs on the destination kernel
// at cycle at. src/seq make the barrier merge order canonical.
type xmsg struct {
	at  Cycles
	src int
	dst int
	seq uint64
	fn  func()
}

// PDES couples n kernels under barrier-window conservative
// synchronization with a fixed lookahead. Construct with NewPDES, pin
// model entities to kernels via Kernel(i), exchange cross-kernel events
// only through Post, and drive everything with Run.
type PDES struct {
	kernels []*Kernel
	la      Cycles
	outbox  [][]xmsg
	seqs    []uint64
	windows uint64
}

// NewPDES creates n kernels coupled with the given lookahead: a
// cross-kernel message posted while the sender is at cycle t may not
// arrive before t+lookahead. The lookahead must be positive — it is the
// window width that lets kernels run concurrently at all.
func NewPDES(n int, lookahead Cycles) *PDES {
	if n <= 0 {
		panic("sim: NewPDES needs at least one kernel")
	}
	if lookahead == 0 {
		panic("sim: PDES requires a positive lookahead")
	}
	pd := &PDES{
		la:     lookahead,
		outbox: make([][]xmsg, n),
		seqs:   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		pd.kernels = append(pd.kernels, NewKernel())
	}
	return pd
}

// Kernel returns sub-kernel i.
func (pd *PDES) Kernel(i int) *Kernel { return pd.kernels[i] }

// N returns the number of sub-kernels.
func (pd *PDES) N() int { return len(pd.kernels) }

// Lookahead returns the configured lookahead.
func (pd *PDES) Lookahead() Cycles { return pd.la }

// Windows returns the number of synchronization windows executed so
// far — the PDES-level work metric (barrier crossings).
func (pd *PDES) Windows() uint64 { return pd.windows }

// Post sends a cross-kernel message: fn will run on kernel dst at cycle
// at. It must be called from kernel src's own context (a process body
// or callback running on that kernel) and at must respect the
// lookahead — at >= src.Now()+lookahead — or Post panics: such a
// message could land inside the current window on a kernel that has
// already simulated past it. Messages are buffered per sender and
// delivered at the next window barrier, sorted by (at, src, seq).
func (pd *PDES) Post(src int, at Cycles, dst int, fn func()) {
	k := pd.kernels[src]
	if at < k.now+pd.la {
		panic(fmt.Sprintf("sim: PDES.Post at cycle %d violates the lookahead: kernel %d is at cycle %d, lookahead %d",
			at, src, k.now, pd.la))
	}
	pd.seqs[src]++
	pd.outbox[src] = append(pd.outbox[src], xmsg{at: at, src: src, dst: dst, seq: pd.seqs[src], fn: fn})
}

// Run drives all kernels to completion with the given number of workers
// (clamped to [1, n]): the caller, and helper goroutines that live for
// the whole Run and have exited when it returns. Within each window the
// workers pull kernels off a shared counter; since kernels share no
// state inside a window and the barrier orders all cross-kernel
// delivery, the worker count affects wall-clock time only, never
// results. Run returns the first error (by kernel index) from any
// kernel, or an aggregated deadlock report if live processes remain
// anywhere once every event queue drains.
func (pd *PDES) Run(workers int) error {
	n := len(pd.kernels)
	helpers := min(max(workers, 1), n) - 1
	errs := make([]error, n)
	var next atomic.Int64
	// runKernels is one worker's share of the window ending at end.
	runKernels := func(end Cycles) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := pd.kernels[i].RunUntil(end); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	// done counts a helper's finished window, and its exit.
	var done sync.WaitGroup
	windows := make(chan Cycles)
	for h := 0; h < helpers; h++ {
		go func() {
			for end := range windows {
				runKernels(end)
				done.Done()
			}
			done.Done()
		}()
	}
	defer func() {
		done.Add(helpers)
		close(windows)
		done.Wait()
	}()
	var merged []xmsg
	for {
		// Barrier: deliver every message posted during the last window.
		// The merge order is canonical — (arrival cycle, sender kernel,
		// per-sender sequence) — so delivery, and with it each receiving
		// kernel's seq assignment, is independent of worker scheduling.
		merged = merged[:0]
		for src, out := range pd.outbox {
			merged = append(merged, out...)
			clear(out)
			pd.outbox[src] = out[:0]
		}
		slices.SortFunc(merged, func(a, b xmsg) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
		})
		for i := range merged {
			m := &merged[i]
			pd.kernels[m.dst].At(m.at, m.fn)
			m.fn = nil
		}

		// The next window starts at the globally earliest pending event.
		var base Cycles
		have := false
		for _, k := range pd.kernels {
			if at, ok := k.NextEventAt(); ok && (!have || at < base) {
				base, have = at, true
			}
		}
		if !have {
			break // no events anywhere: the simulation has drained
		}
		end := base + pd.la - 1
		pd.windows++

		// Run the window. Every kernel advances to exactly `end` (an
		// event-less kernel just jumps its clock), so all clocks agree at
		// every barrier and the lookahead proof holds from a common base:
		// a message posted inside this window carries at >= now+la >
		// end, i.e. it lands strictly in a later window.
		next.Store(0)
		done.Add(helpers)
		for h := 0; h < helpers; h++ {
			windows <- end
		}
		runKernels(end)
		done.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("sim: pdes kernel %d: %w", i, err)
			}
		}
	}

	// Global termination with live processes somewhere is a deadlock;
	// aggregate the per-kernel reports so the diagnosis names every
	// blocked process, not just the first kernel's.
	var dead []string
	for i, k := range pd.kernels {
		if err := k.DeadlockError(); err != nil {
			dead = append(dead, fmt.Sprintf("kernel %d: %v", i, err))
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("sim: pdes deadlock across %d kernel(s): %s", len(dead), strings.Join(dead, "; "))
	}
	return nil
}
