// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of processes — coroutines that model simulated
// agents such as processor cores, host daemon threads or DMA engines.
// Exactly one process executes at any instant: the run loop resumes a
// process (iter.Pull's next) and the process runs until it suspends by
// advancing the simulated clock (Delay), blocking on a Cond, or
// finishing. Events scheduled for the same cycle are executed in the order
// they were scheduled, so a simulation run is fully deterministic and
// repeatable; the Go scheduler never chooses what runs next.
//
// Time is measured in Cycles. The interpretation of a cycle is up to the
// user; the vSCC model uses core clock cycles of the 533 MHz P54C cores.
//
// # Engine internals
//
// The event queue is a hand-rolled monomorphic binary min-heap over the
// concrete event struct, ordered by (time, sequence). Compared to
// container/heap over interface{} this removes the per-push boxing
// allocation and the dynamic dispatch on every comparison — the hot path
// of the whole simulator, since every Delay, wakeup and timed callback is
// one push and one pop.
//
// Same-cycle events take a second fast path: events scheduled for the
// current instant (condition-variable wakeups, zero-latency forwarding
// hops, Delay(0) yields) are appended to a FIFO bucket and dispatched
// without touching the heap at all. Sequence numbers are assigned
// monotonically, so plain FIFO order over the bucket is exactly
// (time, sequence) order and determinism is preserved bit-for-bit.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
)

// Cycles is a point in, or a span of, simulated time.
type Cycles uint64

// event is a single entry in the kernel's event queue. Exactly one of p or
// fn is non-nil: p resumes a blocked process, fn runs a callback inline.
// The struct is copied on every heap and bucket operation — the hottest
// path in the simulator — so cancellation state (see AfterCancel) lives
// in a kernel-side seq set rather than widening every event.
type event struct {
	at  Cycles
	seq uint64
	p   *Proc
	fn  func()
}

// before reports whether e is ordered ahead of o: earlier time first,
// schedule order within a cycle.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a monomorphic binary min-heap of events. It replaces
// container/heap to keep pushes allocation-free: values move through
// concrete-typed slice slots, never through interface{}.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The caller must ensure the
// heap is non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the fn/p references for the GC
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q[r].before(&q[l]) {
			min = r
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked
	procDone
)

func (s procState) String() string {
	switch s {
	case procNew:
		return "new"
	case procRunnable:
		return "runnable"
	case procRunning:
		return "running"
	case procBlocked:
		return "blocked"
	case procDone:
		return "done"
	}
	return "invalid"
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now        Cycles
	seq        uint64
	dispatched uint64
	queue      eventHeap

	// bucket holds the events due at exactly the current time, in
	// (time, seq) order; head indexes the next one to dispatch. Events
	// scheduled for the current instant go straight here, skipping the
	// heap entirely — the same-cycle fast path.
	bucket []event
	head   int

	procs  []*Proc
	live   int // processes not yet done
	panics []error

	// cancelled holds the seqs of events cancelled (AfterCancel,
	// Timeout.Cancel) but not yet discarded by the run loop; nCancelled
	// mirrors its size.
	// Kept out of the event struct so cancellability costs the hot path
	// one integer compare instead of a wider event copy on every push
	// and pop. nil until first used.
	cancelled  map[uint64]struct{}
	nCancelled int

	// running/bounded/limit mirror the active run loop's state so the
	// delay fast path (Proc.Delay) can decide inline whether its own
	// wakeup may be consumed without suspending to the run loop.
	running bool
	bounded bool
	limit   Cycles
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Cycles { return k.now }

// Events returns the number of events dispatched since creation — the
// kernel-level work metric the observability layer reports.
func (k *Kernel) Events() uint64 { return k.dispatched }

// Proc is a simulated process. Methods on Proc must only be called from
// within the process's own body function.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	body  func(*Proc)

	// next and yield are the two ends of the process's coroutine
	// (iter.Pull), nil until its first dispatch: the run loop calls next
	// to resume the body and gets control back when the body calls yield
	// or returns. A process that never starts never has a coroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	daemon bool

	// blockReason is a human-readable description of what the process is
	// waiting for; it appears in deadlock reports.
	blockReason string

	// killErr, when non-nil, aborts the process: the next time it would
	// resume simulated execution it panics with this error instead. The
	// process's own recover (if any) may translate the panic into a
	// terminal status; runBody otherwise swallows it, so a kill is never
	// reported as a kernel panic. Set via Kill.
	killErr error
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Cycles { return p.k.now }

// Spawn creates a process and schedules it to start at the current
// simulated time. It is safe to call before Run and from within process
// bodies or callbacks.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt creates a process that starts at time at (which must not be in
// the past).
func (k *Kernel) SpawnAt(at Cycles, name string, body func(*Proc)) *Proc {
	if at < k.now {
		panic(fmt.Sprintf("sim: SpawnAt(%d) in the past (now %d)", at, k.now))
	}
	p := &Proc{k: k, name: name, state: procNew, body: body}
	k.procs = append(k.procs, p)
	k.live++
	k.schedule(at, p, nil)
	return p
}

// SpawnDaemon creates a service process (for example a device forwarder
// thread) that is expected to block forever once the real work drains:
// it does not count toward deadlock detection, and Run returns normally
// while daemons are still blocked.
func (k *Kernel) SpawnDaemon(name string, body func(*Proc)) *Proc {
	p := k.SpawnAt(k.now, name, body)
	p.daemon = true
	k.live--
	return p
}

// At schedules fn to run as a callback at time at. Callbacks run to
// completion on the kernel's own goroutine and must not block.
func (k *Kernel) At(at Cycles, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: At(%d) in the past (now %d)", at, k.now))
	}
	k.schedule(at, nil, fn)
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Cycles, fn func()) { k.At(k.now+d, fn) }

// AfterCancel schedules fn like After but returns a cancel function. A
// cancelled event is discarded without dispatching and — unlike
// swapping fn for a no-op — without ever advancing the clock to its
// deadline: arming and cancelling a timeout leaves the simulated
// timeline untouched, which is what keeps armed-but-idle recovery
// machinery cycle-identical to a run without it. cancel is idempotent
// and harmless after the event has fired.
func (k *Kernel) AfterCancel(d Cycles, fn func()) (cancel func()) {
	// fired makes cancel-after-dispatch a true no-op. Without it the
	// cancel would insert a mark for an event that already ran — a mark
	// nothing ever consumes, leaving nCancelled permanently non-zero and
	// defeating the zero-cancellations fast path in the dispatch loop.
	fired := false
	k.schedule(k.now+d, nil, func() { fired = true; fn() })
	seq := k.seq // schedule assigned this seq to the event just queued
	return func() {
		if !fired {
			k.cancel(seq)
		}
	}
}

// cancel marks the queued event with seq for discard by the run loop.
// Marking an event twice is harmless. The caller must know the event has
// not dispatched yet: a mark for a fired event would never be consumed.
func (k *Kernel) cancel(seq uint64) {
	if k.cancelled == nil {
		k.cancelled = make(map[uint64]struct{})
	}
	if _, ok := k.cancelled[seq]; !ok {
		k.cancelled[seq] = struct{}{}
		k.nCancelled++
	}
}

// discard reports whether the event with seq was cancelled, consuming
// its mark. Callers gate on k.nCancelled != 0 so the fault-free run
// loop pays only that compare and never makes this call.
func (k *Kernel) discard(seq uint64) bool {
	if _, ok := k.cancelled[seq]; !ok {
		return false
	}
	delete(k.cancelled, seq)
	k.nCancelled--
	return true
}

func (k *Kernel) schedule(at Cycles, p *Proc, fn func()) {
	k.seq++
	if at == k.now {
		// Same-cycle fast path: seq is monotonic, so appending keeps the
		// bucket in (time, seq) order without a heap operation. The heap
		// cannot hold an event at the current time (advancing to a cycle
		// drains all its heap events into the bucket), so dispatch order
		// across the two structures stays correct.
		if k.head == len(k.bucket) {
			// Everything already dispatched — rewind so a long cascade of
			// same-cycle events reuses the same slots instead of growing
			// the bucket for the whole cycle.
			k.bucket = k.bucket[:0]
			k.head = 0
		}
		k.bucket = append(k.bucket, event{at: at, seq: k.seq, p: p, fn: fn})
		return
	}
	k.queue.push(event{at: at, seq: k.seq, p: p, fn: fn})
}

// Run executes events until the queue empties. It returns an error if
// live processes remain blocked when the queue drains (a deadlock) or if
// a process panicked.
func (k *Kernel) Run() error {
	if err := k.run(0, false); err != nil {
		return err
	}
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// RunUntil executes events with timestamps <= t. If the queue drains (or
// only holds later events) before t, the clock advances to t. Unlike
// Run, remaining blocked processes are not treated as a deadlock.
func (k *Kernel) RunUntil(t Cycles) error {
	if err := k.run(t, true); err != nil {
		return err
	}
	if k.now < t {
		k.now = t
	}
	return nil
}

// run is the single dispatch loop behind Run and RunUntil. With bounded
// set, only events with timestamps <= limit are dispatched. It returns
// when the queue drains, the bound is passed, or a process panics.
func (k *Kernel) run(limit Cycles, bounded bool) error {
	if bounded && limit < k.now {
		return nil // the bucket may hold events at now > limit; keep them queued
	}
	k.running, k.bounded, k.limit = true, bounded, limit
	defer func() { k.running = false }()
	for {
		var e event
		if k.head < len(k.bucket) {
			// Fast path: next event is due at the current cycle.
			e = k.bucket[k.head]
			k.bucket[k.head] = event{} // release fn/p for the GC
			k.head++
			if k.nCancelled != 0 && k.discard(e.seq) {
				continue // cancelled while parked in the bucket
			}
		} else {
			if k.head > 0 {
				k.bucket = k.bucket[:0]
				k.head = 0
			}
			if len(k.queue) == 0 {
				return nil
			}
			if bounded && k.queue[0].at > limit {
				return nil
			}
			e = k.queue.pop()
			if k.nCancelled != 0 && k.discard(e.seq) {
				// Cancelled before the clock reached it: discard without
				// advancing time. Events drained into the bucket below
				// are screened when the bucket dispatches them.
				continue
			}
			if e.at < k.now {
				panic("sim: event queue went backwards")
			}
			k.now = e.at
			// Drain every event due at the new cycle into the bucket so
			// that (a) they dispatch FIFO without further sift costs and
			// (b) schedule() may assume the heap never holds events at
			// the current time. Heap pops at equal timestamps come out
			// in seq order, so the bucket stays sorted.
			for len(k.queue) > 0 && k.queue[0].at == e.at {
				k.bucket = append(k.bucket, k.queue.pop())
			}
		}
		k.dispatched++
		if e.fn != nil {
			e.fn()
		} else if err := k.dispatch(e.p); err != nil {
			return err
		}
	}
}

// dispatch resumes process p — creating its coroutine on the first
// dispatch — and returns when it suspends or finishes.
func (k *Kernel) dispatch(p *Proc) error {
	switch p.state {
	case procDone:
		return nil // stale wakeup for a finished process
	case procNew:
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			k.runBody(p)
		})
	case procBlocked, procRunnable:
	default:
		panic("sim: resuming a process in state " + p.state.String())
	}
	p.state = procRunning
	p.next()
	if len(k.panics) > 0 {
		return k.panics[0]
	}
	return nil
}

// runBody is the body of p's coroutine. It recovers every panic, so none
// escapes through next: a crash becomes the run's error, naming p.
func (k *Kernel) runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			// A kill sentinel that unwound the whole body (no handler
			// recovered it) is an orderly abort, not a crash.
			if err, ok := r.(error); !ok || p.killErr == nil || err != p.killErr {
				k.panics = append(k.panics, fmt.Errorf("sim: process %q panicked: %v", p.name, r))
			}
		}
		p.state = procDone
		if !p.daemon {
			k.live--
		}
	}()
	p.checkKill() // killed before its first dispatch: abort without running
	p.body(p)
}

// deadlockError builds a report naming every still-blocked process.
func (k *Kernel) deadlockError() error {
	var names []string
	for _, p := range k.procs {
		if p.daemon {
			continue
		}
		if p.state == procBlocked || p.state == procNew || p.state == procRunnable {
			names = append(names, fmt.Sprintf("%s (%s: %s)", p.name, p.state, p.blockReason))
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock — %d process(es) blocked with empty event queue: %v", len(names), names)
}

// Delay advances the process by d cycles of simulated time. A Delay of
// zero yields to other work scheduled at the current instant.
func (p *Proc) Delay(d Cycles) {
	p.checkKill()
	k := p.k
	at := k.now + d
	// Inline continuation fast path: when the process's own wakeup would
	// be the very next event dispatched — no other same-cycle work is
	// pending and nothing in the heap is due before at — the schedule
	// and the coroutine round trip through the run loop are pure
	// overhead. Bump the same counters the event would have consumed
	// (seq for AfterCancel bookkeeping, dispatched for Events()) and
	// keep running. The heap never holds events at the current time, so
	// an empty bucket means nothing else can run before the wakeup.
	if k.running && k.head == len(k.bucket) && (!k.bounded || at <= k.limit) {
		if d == 0 {
			k.seq++
			k.dispatched++
			return
		}
		if len(k.queue) == 0 || at < k.queue[0].at {
			k.seq++
			k.dispatched++
			k.now = at
			return
		}
	}
	p.state = procRunnable
	p.blockReason = "delay"
	k.schedule(at, p, nil)
	p.yield(struct{}{}) // suspend until the run loop dispatches the wakeup
	p.checkKill()
}

// park blocks the process without scheduling a wakeup; something else must
// eventually call unpark. reason appears in deadlock reports.
func (p *Proc) park(reason string) {
	p.checkKill()
	p.state = procBlocked
	p.blockReason = reason
	p.yield(struct{}{})
	p.checkKill()
}

// Park blocks the process without scheduling a wakeup; something else
// must eventually call Unpark. reason appears in deadlock reports. The
// exported form exists for engines outside the package (the PDES PCIe
// ports) that block a requester until a response message lands.
func (p *Proc) Park(reason string) { p.park(reason) }

// Unpark schedules a parked process to resume at the current simulated
// time. It must be called from kernel context on the process's own
// kernel (another process's body or a callback).
func (p *Proc) Unpark() { p.unpark() }

// Kill aborts the process with err: at its next resume point (park
// wakeup, Delay expiry, or first dispatch for a process that has not
// started) it panics with err instead of continuing. A blocked process
// is woken immediately, so a rank parked forever on a lost peer unwinds
// at the kill cycle. The panic unwinds the process body through its
// deferred handlers — a body that recovers the exact err value turns
// the kill into a normal return; otherwise runBody swallows it, so a
// kill never aborts the kernel run. Killing a finished process is a
// no-op; a second Kill keeps the first error. Must be called from
// kernel context (another process's body or a callback) on the
// process's own kernel.
func (p *Proc) Kill(err error) {
	if err == nil {
		panic("sim: Kill with nil error")
	}
	if p.state == procDone || p.killErr != nil {
		return
	}
	p.killErr = err
	if p.state == procBlocked {
		p.unpark()
	}
}

// errClosed is the kill Close delivers.
var errClosed = errors.New("sim: kernel closed")

// Close ends every process that has not finished — a daemon parked
// forever once the real work drained, a rank stranded by a lost peer or a
// failed run — and returns once each has unwound. Every such process
// otherwise keeps its coroutine, and whatever its stack references,
// alive for the life of the program: a leak that grows with every
// simulation a long-lived process runs. Call it when the run is over and
// its results have been read; the kernel must not be running and cannot
// be used again.
func (k *Kernel) Close() {
	for _, p := range k.procs {
		p.Kill(errClosed)
	}
	// A killed process panics at its next resume point and at every one
	// after it, so it cannot block again: one dispatch each unwinds it. A
	// process that never started has no coroutine. Whatever is still
	// queued belongs to a simulation that is over, and is dropped unrun
	// (a self-rescheduling callback would never drain).
	for _, p := range k.procs {
		if p.state == procRunnable {
			_ = k.dispatch(p) // a panic raised while unwinding has no run left to fail
		}
		p.state = procDone
	}
	k.queue, k.bucket, k.head = nil, nil, 0
}

// checkKill delivers a pending kill at a resume point.
func (p *Proc) checkKill() {
	if p.killErr != nil {
		panic(p.killErr)
	}
}

// unpark schedules p to resume at the current simulated time. It must be
// called from kernel context (another process's body or a callback).
func (p *Proc) unpark() {
	if p.state != procBlocked {
		panic("sim: unpark of a process in state " + p.state.String())
	}
	p.state = procRunnable
	p.k.schedule(p.k.now, p, nil)
}

// NextEventAt reports the timestamp of the earliest pending event, or
// false if the queue is empty. A cancelled-but-undiscarded event may
// make the reported time earlier than the first event that will really
// dispatch; callers (the PDES window calculation) only need a lower
// bound, which this is.
func (k *Kernel) NextEventAt() (Cycles, bool) {
	if k.head < len(k.bucket) {
		return k.now, true
	}
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// DeadlockError returns the blocked-process diagnostic Run would
// produce, or nil if no live processes remain. Engines that coordinate
// several kernels through bounded RunUntil windows (sim.PDES) call it
// once global progress stops, since RunUntil itself never reports
// deadlock.
func (k *Kernel) DeadlockError() error {
	if k.live == 0 {
		return nil
	}
	return k.deadlockError()
}
