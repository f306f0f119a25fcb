package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

func TestWaitOrTimeoutExpires(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var ok bool
	var woke Cycles
	k.Spawn("waiter", func(p *Proc) {
		to := c.ArmTimeout(100)
		ok = c.WaitOrTimeout(p, to)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("wait reported success, want timeout")
	}
	if woke != 100 {
		t.Errorf("woke at cycle %d, want 100", woke)
	}
}

func TestWaitOrTimeoutSignalledInTime(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var ok bool
	var woke Cycles
	k.Spawn("waiter", func(p *Proc) {
		to := c.ArmTimeout(100)
		ok = c.WaitOrTimeout(p, to)
		to.Cancel()
		woke = p.Now()
	})
	k.After(40, c.Signal)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("wait reported timeout, want success")
	}
	if woke != 40 {
		t.Errorf("woke at cycle %d, want 40", woke)
	}
}

// One token spans a whole engaged-wait session: intermediate signalled
// waits succeed, and only the final park times out when the deadline
// passes.
func TestTimeoutSpansMultipleWaits(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var results []bool
	k.Spawn("waiter", func(p *Proc) {
		to := c.ArmTimeout(100)
		for i := 0; i < 3; i++ {
			results = append(results, c.WaitOrTimeout(p, to))
		}
	})
	k.After(10, c.Signal)
	k.After(20, c.Signal)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false}
	if len(results) != len(want) {
		t.Fatalf("got %d waits, want %d", len(results), len(want))
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("wait %d = %v, want %v", i, results[i], want[i])
		}
	}
}

// A cancelled token never fires, even though its kernel event still
// dispatches, and an expired token refuses to park at all.
func TestTimeoutCancelAndReuseAfterFire(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var cancelledFired, expiredWaited bool
	var wokeAt Cycles
	k.Spawn("waiter", func(p *Proc) {
		to := c.ArmTimeout(10)
		to.Cancel()
		p.Delay(50)
		cancelledFired = to.fired

		exp := c.ArmTimeout(5)
		p.Delay(20) // expire while runnable
		expiredWaited = c.WaitOrTimeout(p, exp)
		wokeAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cancelledFired {
		t.Error("cancelled timeout reports fired")
	}
	if expiredWaited {
		t.Error("expired token parked and reported success")
	}
	if wokeAt != 70 {
		t.Errorf("expired-token wait returned at cycle %d, want 70 (no park)", wokeAt)
	}
}

// A timeout pulls its waiter out of the middle of the FIFO without
// disturbing its neighbours: Signal skips the vacated slot.
func TestTimeoutRemovesMidQueueWaiter(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var order []string
	wait := func(name string, to *Timeout) func(*Proc) {
		return func(p *Proc) {
			c.WaitOrTimeout(p, to)
			order = append(order, name)
		}
	}
	k.Spawn("a", wait("a", nil))
	k.Spawn("b", func(p *Proc) {
		to := c.ArmTimeout(10)
		c.WaitOrTimeout(p, to)
		order = append(order, "b")
	})
	k.Spawn("c", wait("c", nil))
	k.After(50, c.Signal) // wakes a (b already gone)
	k.After(60, c.Signal) // wakes c
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "b a c"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += " "
		}
		got += s
	}
	if got != want {
		t.Errorf("wake order %q, want %q", got, want)
	}
}

// A signal and the deadline landing on the same cycle must wake the
// waiter exactly once, deterministically — in either scheduling order.
// The contract (see WaitOrTimeout) is that the return value may be
// false even though the signal arrived, so callers re-check their
// predicate; what may never happen is a double wakeup or a
// scheduling-order-dependent outcome.
func TestWaitOrTimeoutSameCycleSignalVsTimeout(t *testing.T) {
	run := func(signalFirst bool) (wakeups int, ok bool, woke Cycles) {
		k := NewKernel()
		c := NewCond(k, "flag")
		if signalFirst {
			k.After(100, c.Broadcast)
		}
		k.Spawn("waiter", func(p *Proc) {
			to := c.ArmTimeout(100)
			ok = c.WaitOrTimeout(p, to)
			wakeups++
			woke = p.Now()
		})
		if !signalFirst {
			k.After(100, c.Broadcast)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return wakeups, ok, woke
	}
	for _, signalFirst := range []bool{true, false} {
		wakeups, ok, woke := run(signalFirst)
		if wakeups != 1 {
			t.Errorf("signalFirst=%v: %d wakeups, want exactly 1", signalFirst, wakeups)
		}
		if ok {
			t.Errorf("signalFirst=%v: same-cycle race reported success, want deterministic timeout", signalFirst)
		}
		if woke != 100 {
			t.Errorf("signalFirst=%v: woke at cycle %d, want 100", signalFirst, woke)
		}
	}
}

// A same-cycle timeout expiry must not eat a Signal meant for a
// tokenless neighbour: the vacated slot is skipped and the neighbour
// still wakes.
func TestTimeoutSameCycleDoesNotStealSignal(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var timedOut, neighbourOK bool
	var neighbourAt Cycles
	k.Spawn("timed", func(p *Proc) {
		to := c.ArmTimeout(100)
		timedOut = !c.WaitOrTimeout(p, to)
	})
	k.Spawn("plain", func(p *Proc) {
		c.Wait(p)
		neighbourOK = true
		neighbourAt = p.Now()
	})
	// Spawned after "timed", so this signal is scheduled behind the
	// timeout event and lands on the same cycle, just after the expiry
	// has vacated the tokened waiter's slot.
	k.Spawn("signaller", func(p *Proc) {
		p.Delay(100)
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("tokened waiter did not time out")
	}
	if !neighbourOK {
		t.Fatal("signal was lost to the expiring timeout's vacated slot")
	}
	if neighbourAt != 100 {
		t.Errorf("neighbour woke at cycle %d, want 100", neighbourAt)
	}
}

// Cancelling an event that already fired is a no-op: the callback ran
// exactly once, repeated cancels stay harmless, and no stale
// cancellation mark lingers to tax the dispatch fast path.
func TestAfterCancelOfFiredEvent(t *testing.T) {
	k := NewKernel()
	fires := 0
	cancel := k.AfterCancel(10, func() { fires++ })
	done := false
	k.Spawn("driver", func(p *Proc) {
		p.Delay(50) // the event fires at cycle 10
		cancel()
		cancel() // idempotent
		p.Delay(50)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Errorf("callback ran %d times, want 1", fires)
	}
	if !done {
		t.Error("driver did not complete")
	}
	if k.nCancelled != 0 {
		t.Errorf("cancel of a fired event left %d stale cancellation mark(s)", k.nCancelled)
	}
	// A cancel before the deadline still suppresses the event entirely.
	fires2 := 0
	cancel2 := k.AfterCancel(10, func() { fires2++ })
	cancel2()
	k.Spawn("driver2", func(p *Proc) { p.Delay(100) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fires2 != 0 {
		t.Errorf("cancelled event fired %d times, want 0", fires2)
	}
	if k.nCancelled != 0 {
		t.Errorf("consumed cancellation left %d mark(s)", k.nCancelled)
	}
}

// Timed waits that expire on a Cond nobody signals leave no slots
// behind: the list holds its live waiters only, alone or queued behind
// a plain waiter that never wakes.
func TestExpiredWaitsLeaveNoSlots(t *testing.T) {
	for _, plain := range []int{0, 1} {
		k := NewKernel()
		c := NewCond(k, "never")
		for i := 0; i < plain; i++ {
			k.SpawnDaemon("plain", c.Wait)
		}
		most := 0
		k.Spawn("timed", func(p *Proc) {
			for i := 0; i < 10000; i++ {
				to := c.ArmTimeout(3)
				if c.WaitOrTimeout(p, to) {
					t.Error("an unsignalled wait reported success")
					return
				}
				most = max(most, len(c.waiters)-c.head)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if most > plain+1 {
			t.Errorf("%d plain waiter(s): the waiter list held %d slots after an expiry, want at most %d", plain, most, plain+1)
		}
		k.Close()
	}
}

// Arming a deadline, waiting under it and cancelling it costs the token
// and its expiry callback, nothing more.
func TestTimedWaitAllocations(t *testing.T) {
	const rounds = 20000
	k := NewKernel()
	c := NewCond(k, "flag")
	// MemStats counts the whole process, so a window can catch a stray
	// runtime allocation: measure up to three windows and keep the least.
	const windows = 3
	least := uint64(0)
	measured := false
	k.Spawn("waiter", func(p *Proc) {
		round := func() {
			to := c.ArmTimeout(10)
			c.WaitOrTimeout(p, to)
			to.Cancel()
		}
		for i := 0; i < 100; i++ { // warm the queues and the cancelled set
			round()
		}
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; !measured || n < least {
				least, measured = n, true
			}
			if least <= 2*rounds {
				return
			}
		}
	})
	// Signals every 4 cycles: most waits are signalled and cancel a
	// pending deadline, the rest expire.
	k.SpawnDaemon("signaller", func(p *Proc) {
		for {
			p.Delay(4)
			c.Signal()
		}
	})
	if err := k.RunUntil(20 * windows * rounds); err != nil {
		t.Fatal(err)
	}
	k.Close()
	if !measured {
		t.Fatal("the waiter did not finish its rounds")
	}
	if per := float64(least) / rounds; per > 2 {
		t.Errorf("a timed-wait round allocates %.3f times, want at most 2", per)
	}
}

// A WaitFor round, woken or expired, allocates nothing once the process
// holds its token: the token and its bound expiry are made on the first
// timed wait and reused by every one after it.
func TestWaitForAllocatesNothing(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	var allocs float64
	woke, expired, done := 0, 0, false
	k.Spawn("waiter", func(p *Proc) {
		round := func() {
			if c.WaitFor(p, 10) {
				woke++
			} else {
				expired++
			}
		}
		for i := 0; i < 100; i++ { // warm the queues and the cancelled set
			round()
		}
		allocs = testing.AllocsPerRun(1000, round)
		done = true
	})
	k.Spawn("signaller", func(p *Proc) {
		for !done {
			p.Delay(14)
			c.Signal()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke == 0 || expired == 0 {
		t.Fatalf("%d woken and %d expired waits, want both", woke, expired)
	}
	if allocs != 0 {
		t.Errorf("a WaitFor round allocates %v times, want 0", allocs)
	}
}

// A Kill that unwinds a WaitFor cancels its deadline: the event never
// dispatches and the clock never reaches it.
func TestWaitForKillCancelsDeadline(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "flag")
	errKill := errors.New("kill")
	p := k.Spawn("waiter", func(p *Proc) { c.WaitFor(p, 1000) })
	k.At(10, func() { p.Kill(errKill) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 || k.nCancelled != 0 {
		t.Errorf("after the kill: now %d, %d cancelled marks left, want 10 and 0", k.Now(), k.nCancelled)
	}
}

// Two processes taking turns to wait on one Cond never drain its waiter
// list; the live waiters slide to the front of the array instead of
// growing it.
func TestCondTwoWaitersReuseArray(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "tile")
	const rounds = 10000
	most := 0
	for i := 0; i < 2; i++ {
		k.SpawnAt(Cycles(5*i), fmt.Sprintf("core%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				if c.WaitFor(p, 10) {
					t.Error("an unsignalled wait reported success")
					return
				}
				most = max(most, cap(c.waiters))
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if most > 4 {
		t.Errorf("the waiter array grew to %d slots for two waiters, want at most 4", most)
	}
	if want := Cycles(5 + 10*rounds); k.Now() != want {
		t.Errorf("the last expiry landed at %d, want %d", k.Now(), want)
	}
}

// Proc stays in the 96-byte size class: one more word moves every
// process of every run to the next class.
func TestProcSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes checked on 64-bit platforms")
	}
	if n := unsafe.Sizeof(Proc{}); n > 96 {
		t.Errorf("Proc is %d bytes, want at most 96", n)
	}
}

func TestNilTimeoutHelpers(t *testing.T) {
	var to *Timeout
	to.Cancel() // must not panic
	k := NewKernel()
	c := NewCond(k, "flag")
	var ok bool
	k.Spawn("waiter", func(p *Proc) { ok = c.WaitOrTimeout(p, to) })
	k.After(10, c.Signal)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a nil token timed out")
	}
}
