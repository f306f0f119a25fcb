package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Tests for the engine fast paths introduced with the monomorphic event
// queue: the same-cycle bucket, the resettable Stop, and the ordering
// guarantees the heap must keep without container/heap.

// TestHeapOrderingRandomized is the ordering contract of the hand-rolled
// heap: whatever order events are scheduled in, they fire in (time,
// sequence) order.
func TestHeapOrderingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel()
		const n = 200
		type stamp struct {
			at  Cycles
			ord int // schedule order, the within-cycle tiebreak
		}
		want := make([]stamp, 0, n)
		var got []stamp
		for i := 0; i < n; i++ {
			at := Cycles(rng.Intn(20)) // many collisions
			s := stamp{at: at, ord: i}
			want = append(want, s)
			k.At(at, func() { got = append(got, s) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: dispatched %d events, want %d", trial, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSameCycleCascade exercises the bucket fast path: a long chain of
// events each scheduling the next at the same instant must run in order
// without the clock moving.
func TestSameCycleCascade(t *testing.T) {
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10000 {
			k.After(0, step)
		}
	}
	k.At(7, step)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Errorf("cascade ran %d steps, want 10000", n)
	}
	if k.Now() != 7 {
		t.Errorf("clock moved to %d during a same-cycle cascade, want 7", k.Now())
	}
}

// TestRunUntilBackwardsGuardPanics checks that the bounded run carries
// the same queue-went-backwards internal consistency guard as Run
// (white box: the public API cannot schedule into the past).
func TestRunUntilBackwardsGuardPanics(t *testing.T) {
	k := NewKernel()
	k.queue.push(event{at: 5, seq: 1, fn: func() {}})
	k.now = 10
	defer func() {
		if recover() == nil {
			t.Error("RunUntil dispatched an event behind the clock without panicking")
		}
	}()
	_ = k.RunUntil(20)
}

// TestRunUntilPastBoundIsNoOp: a bound behind the clock must neither
// dispatch current-cycle work nor rewind anything.
func TestRunUntilPastBoundIsNoOp(t *testing.T) {
	k := NewKernel()
	if err := k.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	ran := false
	k.At(100, func() { ran = true }) // due now, but outside the bound below
	if err := k.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("RunUntil(50) dispatched an event due at 100")
	}
	if k.Now() != 100 {
		t.Errorf("clock = %d, want 100", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event lost after past-bound RunUntil")
	}
}

// TestCondWaitingAfterChurn guards the head-indexed waiter list: the
// set of parked waiters must stay correct through interleaved waits and
// wakes.
func TestCondWaitingAfterChurn(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "churn")
	waiting := func() (n int) {
		for _, w := range c.waiters[c.head:] {
			if w.p != nil {
				n++
			}
		}
		return n
	}
	woken := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("ctl", func(p *Proc) {
		p.Delay(1)
		if waiting() != 4 {
			panic("want 4 first-round waiters")
		}
		c.Signal()
		c.Signal()
		p.Delay(1) // the two woken processes re-wait
		if waiting() != 4 {
			panic("want 2 fresh + 2 re-waiters")
		}
		c.Broadcast()
		p.Delay(1)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 8 {
		t.Errorf("woken = %d, want 8", woken)
	}
}
