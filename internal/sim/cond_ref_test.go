package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refCond is the linear-scan condition variable Cond replaced: an
// expiring refTimeout scans every slot from head for its waiter, and
// only Signal and Broadcast ever shorten the list. It is kept as the
// reference the slot-indexed Cond must match event for event.
type refCond struct {
	k       *Kernel
	reason  string
	waiters []refWaiter
	head    int
}

type refWaiter struct {
	p  *Proc
	to *refTimeout
}

type refTimeout struct {
	fired  bool
	done   bool
	cancel func()
}

func newRefCond(k *Kernel, name string) *refCond {
	return &refCond{k: k, reason: "cond " + name}
}

func (c *refCond) Wait(p *Proc) {
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, refWaiter{p: p})
	p.park(c.reason)
}

func (c *refCond) ArmTimeout(d Cycles) *refTimeout {
	t := &refTimeout{}
	t.cancel = c.k.AfterCancel(d, func() {
		if t.done || t.fired {
			return
		}
		t.fired = true
		for i := c.head; i < len(c.waiters); i++ {
			w := c.waiters[i]
			if w.to == t && w.p != nil && w.p.state == procBlocked {
				c.waiters[i] = refWaiter{}
				w.p.unpark()
				return
			}
		}
	})
	return t
}

func (t *refTimeout) Cancel() {
	t.done = true
	t.cancel()
}

func (c *refCond) WaitOrTimeout(p *Proc, t *refTimeout) bool {
	if t.fired {
		return false
	}
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, refWaiter{p: p, to: t})
	p.park(c.reason)
	return !t.fired
}

func (c *refCond) Signal() {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = refWaiter{}
		c.head++
		if w.p != nil && w.p.state == procBlocked {
			w.p.unpark()
			return
		}
	}
}

func (c *refCond) Broadcast() {
	ws := c.waiters[c.head:]
	c.waiters = c.waiters[:0]
	c.head = 0
	for i, w := range ws {
		ws[i] = refWaiter{}
		if w.p != nil && w.p.state == procBlocked {
			w.p.unpark()
		}
	}
}

// condOps is the surface a scripted scenario drives, so one script runs
// against Cond and refCond alike. arm returns the token's wait and
// cancel.
type condOps struct {
	wait              func(*Proc)
	arm               func(Cycles) (wait func(*Proc) bool, cancel func())
	signal, broadcast func()
}

func condUnderTest(k *Kernel) condOps {
	c := NewCond(k, "c")
	return condOps{
		wait: c.Wait,
		arm: func(d Cycles) (func(*Proc) bool, func()) {
			to := c.ArmTimeout(d)
			return func(p *Proc) bool { return c.WaitOrTimeout(p, to) }, to.Cancel
		},
		signal: c.Signal, broadcast: c.Broadcast,
	}
}

func refCondOps(k *Kernel) condOps {
	c := newRefCond(k, "c")
	return condOps{
		wait: c.Wait,
		arm: func(d Cycles) (func(*Proc) bool, func()) {
			to := c.ArmTimeout(d)
			return func(p *Proc) bool { return c.WaitOrTimeout(p, to) }, to.Cancel
		},
		signal: c.Signal, broadcast: c.Broadcast,
	}
}

// A scripted step of one process.
const (
	stepDelay      = iota // Delay(arg)
	stepWait              // Wait
	stepWaitFresh         // arm a fresh token of arg cycles, wait under it, cancel it
	stepWaitShared        // wait under the process's shared token
	stepArm               // replace the shared token with one of arg cycles
	stepCancel            // cancel the shared token
	stepSignal            // Signal
	stepBroadcast         // Broadcast
	numSteps
)

type condStep struct{ op, arg int }

// condScript is a seeded scenario: each process's steps, plus signals,
// broadcasts and kills delivered from callbacks. Times and deadlines are
// small multiples of 5 so signals, deadlines and delays keep landing on
// the same cycle.
type condScript struct {
	procs [][]condStep
	calls []condCall
}

type condCall struct {
	at       Cycles
	op, proc int // op: stepSignal, stepBroadcast, or -1 to kill proc
}

func newCondScript(rng *rand.Rand, procs int) condScript {
	var s condScript
	for i := 0; i < procs; i++ {
		steps := make([]condStep, 10+rng.Intn(30))
		for j := range steps {
			steps[j] = condStep{op: rng.Intn(numSteps), arg: 5 * rng.Intn(8)}
		}
		s.procs = append(s.procs, steps)
	}
	for i := rng.Intn(40); i > 0; i-- {
		call := condCall{at: Cycles(5 * rng.Intn(60)), op: stepSignal + rng.Intn(2)}
		if rng.Intn(10) == 0 {
			call.op, call.proc = -1, rng.Intn(procs)
		}
		s.calls = append(s.calls, call)
	}
	return s
}

var errScriptKill = errors.New("scripted kill")

// run plays the script on a fresh kernel against the Cond built by mk and
// returns the log of every wake: cycle, process, step, return value.
func (s condScript) run(t *testing.T, mk func(*Kernel) condOps) string {
	k := NewKernel()
	defer k.Close()
	c := mk(k)
	var log strings.Builder
	note := func(p *Proc, step int, what string) {
		fmt.Fprintf(&log, "%d %s step%d %s\n", p.Now(), p.name, step, what)
	}
	procs := make([]*Proc, len(s.procs))
	for i, steps := range s.procs {
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			step := -1
			defer func() {
				if r := recover(); r != nil {
					if r != errScriptKill {
						panic(r)
					}
					note(p, step, "killed")
				}
			}()
			wait, cancel := c.arm(20)
			for step = range steps {
				st := steps[step]
				switch st.op {
				case stepDelay:
					p.Delay(Cycles(st.arg))
				case stepWait:
					c.wait(p)
					note(p, step, "woke")
				case stepWaitFresh:
					w, cl := c.arm(Cycles(st.arg))
					note(p, step, fmt.Sprint(w(p)))
					cl()
				case stepWaitShared:
					note(p, step, fmt.Sprint(wait(p)))
				case stepArm:
					wait, cancel = c.arm(Cycles(st.arg))
				case stepCancel:
					cancel()
				case stepSignal:
					c.signal()
				case stepBroadcast:
					c.broadcast()
				}
			}
			note(p, len(steps), "done")
		})
	}
	for _, call := range s.calls {
		switch call.op {
		case stepSignal:
			k.At(call.at, c.signal)
		case stepBroadcast:
			k.At(call.at, c.broadcast)
		default:
			p := procs[call.proc]
			k.At(call.at, func() { p.Kill(errScriptKill) })
		}
	}
	if err := k.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "now %d events %d\n", k.Now(), k.Events())
	for _, p := range procs {
		fmt.Fprintf(&log, "%s %s\n", p.name, p.state)
	}
	return log.String()
}

// TestCondMatchesReferenceModel drives the slot-indexed Cond and the
// linear-scan reference with the same seeded scripts — plain, shared-
// and fresh-token waits, cancels, signals and broadcasts from processes
// and callbacks, kills, and same-cycle signal/deadline ties — over 1–8
// processes. Every wake must land on the same process, cycle and return
// value, and the kernels must dispatch the same events.
func TestCondMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newCondScript(rng, 1+int(seed%8))
		got, want := s.run(t, condUnderTest), s.run(t, refCondOps)
		if got != want {
			t.Fatalf("seed %d: Cond diverges from the reference model\n--- Cond\n%s--- reference\n%s", seed, got, want)
		}
	}
}
