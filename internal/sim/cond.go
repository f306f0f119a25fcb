package sim

// Cond is a condition variable in simulated time. Processes block on it
// with Wait; other processes or callbacks wake them with Signal or
// Broadcast. Wakeups take effect at the current simulated instant and are
// delivered in FIFO order, preserving determinism.
type Cond struct {
	k      *Kernel
	name   string
	reason string // "cond <name>", built once — Wait is a hot path

	// waiters[head:] are the blocked processes in FIFO order. Dequeuing
	// advances head instead of reslicing from the front, so the backing
	// array is reused once drained rather than reallocated every
	// wait/signal cycle. A slot with a nil proc was consumed out of FIFO
	// order by an expiring Timeout and is skipped. An expiry also moves
	// head past leading empty slots and trims trailing ones, so the list
	// spans only from its oldest to its newest live waiter however many
	// timed waits expire on a Cond nobody signals.
	waiters []condWaiter
	head    int
}

// condWaiter is one parked process, plus the timeout token (if any) that
// may cancel the wait.
type condWaiter struct {
	p  *Proc
	to *Timeout
}

// NewCond returns a condition variable owned by kernel k. The name is used
// in deadlock reports.
func NewCond(k *Kernel, name string) *Cond {
	return &Cond{k: k, name: name, reason: "cond " + name}
}

// Wait blocks the calling process until the condition is signalled.
func (c *Cond) Wait(p *Proc) {
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, condWaiter{p: p})
	p.park(c.reason)
}

// Timeout is an armed deadline bound to one condition variable. It is a
// single kernel event shared across any number of WaitOrTimeout calls,
// so one token bounds a whole engaged-wait session (poll, wait, poll,
// wait, ...) rather than a single park. All methods are nil-safe on a
// nil receiver, which stands for "no deadline".
type Timeout struct {
	c   *Cond
	seq uint64 // the kernel seq of the deadline event

	// slot indexes c.waiters at the latest WaitOrTimeout under this
	// token. Only one process waits under a token, one park at a time, so
	// that slot is the only one the expiry can wake; it is stale (emptied
	// or reused) once the wait has ended, which the expiry detects.
	slot int

	fired bool // the deadline event ran
	// done is set by Cancel: once the cancelled event is discarded, a
	// second mark for its seq would never be consumed.
	done bool
}

// ArmTimeout schedules a deadline d cycles from now. If the deadline
// expires while a process is parked on c under this token, that process
// is woken out of FIFO order; WaitOrTimeout then reports false.
func (c *Cond) ArmTimeout(d Cycles) *Timeout {
	t := &Timeout{c: c}
	c.k.schedule(c.k.now+d, nil, t.expire)
	t.seq = c.k.seq // schedule assigned this seq to the event just queued
	return t
}

// expire is the deadline event: it wakes the process parked under t, if
// one still is, and drops the slot it vacates.
func (t *Timeout) expire() {
	t.fired = true
	c := t.c
	if t.slot >= len(c.waiters) {
		return
	}
	w := c.waiters[t.slot]
	if w.to != t || w.p.state != procBlocked {
		return // the wait ended (signal or kill) before the deadline
	}
	c.waiters[t.slot] = condWaiter{}
	for c.head < len(c.waiters) && c.waiters[c.head].p == nil {
		c.head++
	}
	n := len(c.waiters)
	for n > c.head && c.waiters[n-1].p == nil {
		n--
	}
	c.waiters = c.waiters[:n]
	w.p.unpark()
}

// Cancel disarms the deadline. The underlying kernel event is discarded
// without ever dispatching, so a cancelled timeout leaves no trace on
// the simulated timeline (see Kernel.AfterCancel). Cancelling after the
// deadline fired, or twice, is a no-op.
func (t *Timeout) Cancel() {
	if t == nil || t.fired || t.done {
		return
	}
	t.done = true
	t.c.k.cancel(t.seq)
}

// WaitOrTimeout blocks like Wait but gives up when the token's deadline
// expires, reporting false. A nil token waits unconditionally. An
// already-expired token returns false without yielding; callers must
// re-check their predicate either way, since a wakeup by Signal and the
// deadline can land on the same cycle.
func (c *Cond) WaitOrTimeout(p *Proc, t *Timeout) bool {
	if t == nil {
		c.Wait(p)
		return true
	}
	if t.fired {
		return false
	}
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	t.slot = len(c.waiters)
	c.waiters = append(c.waiters, condWaiter{p: p, to: t})
	p.park(c.reason)
	return !t.fired
}

// Signal wakes the longest-waiting process, if any. Slots emptied by an
// expired Timeout are skipped, as are stale slots whose process was
// woken out from under the wait by Proc.Kill (the slot stays behind;
// the process is no longer blocked).
func (c *Cond) Signal() {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = condWaiter{} // release for the GC
		c.head++
		if w.p != nil && w.p.state == procBlocked {
			w.p.unpark()
			return
		}
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters[c.head:]
	c.waiters = c.waiters[:0]
	c.head = 0
	for i, w := range ws {
		ws[i] = condWaiter{}
		if w.p != nil && w.p.state == procBlocked {
			w.p.unpark()
		}
	}
}

// Gate is a boolean level-triggered synchronization primitive: processes
// wait until it is open. Unlike Cond, a Gate that is already open never
// blocks, which models a flag a core would read without spinning.
type Gate struct {
	cond *Cond
	open bool
}

// NewGate returns a closed gate.
func NewGate(k *Kernel, name string) *Gate {
	return &Gate{cond: NewCond(k, name)}
}

// Open opens the gate, waking all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.cond.Broadcast()
}

// Close closes the gate; subsequent Wait calls block.
func (g *Gate) Close() { g.open = false }

// IsOpen reports whether the gate is open.
func (g *Gate) IsOpen() bool { return g.open }

// Wait blocks until the gate is open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.cond.Wait(p)
	}
}
