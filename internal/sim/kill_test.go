package sim

import (
	"errors"
	"runtime"
	"testing"
)

// TestKillWakesParkedProcess: a process parked forever unwinds with the
// kill error at the kill cycle, and the run completes without treating
// the unwound body as a kernel panic.
func TestKillWakesParkedProcess(t *testing.T) {
	k := NewKernel()
	errKill := errors.New("abort")
	var got error
	var at Cycles
	p := k.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				got = r.(error)
				at = p.Now()
			}
		}()
		p.Park("forever")
		t.Error("victim resumed past its park")
	})
	k.At(100, func() { p.Kill(errKill) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != errKill {
		t.Fatalf("recovered %v, want %v", got, errKill)
	}
	if at != 100 {
		t.Errorf("killed at cycle %d, want 100", at)
	}
}

// TestKillWithoutRecoverIsNotAKernelPanic: a body with no recover of its
// own unwinds cleanly; Run reports neither a panic nor a deadlock.
func TestKillWithoutRecoverIsNotAKernelPanic(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("victim", func(p *Proc) {
		p.Park("forever")
	})
	k.At(10, func() { p.Kill(errors.New("abort")) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestKillDelayedProcess: a pending kill is delivered when a Delay
// expires, including across the inline continuation fast path.
func TestKillDelayedProcess(t *testing.T) {
	k := NewKernel()
	errKill := errors.New("abort")
	var got error
	p := k.Spawn("victim", func(p *Proc) {
		defer func() { got, _ = recover().(error) }()
		for {
			p.Delay(7)
		}
	})
	k.At(100, func() { p.Kill(errKill) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != errKill {
		t.Fatalf("recovered %v, want %v", got, errKill)
	}
}

// TestKillCondWaiterLeavesStaleSlotSafe: killing a process parked on a
// Cond leaves its waiter slot behind; later Signal and Broadcast calls
// must skip the stale slot (not unpark a non-blocked process) and still
// deliver the wakeup to a live waiter.
func TestKillCondWaiterLeavesStaleSlotSafe(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var lateWoken bool
	k.Spawn("victim", func(p *Proc) {
		c.Wait(p)
		t.Error("victim woke instead of dying")
	})
	k.Spawn("late", func(p *Proc) {
		p.Delay(50) // parks on c after the kill below
		c.Wait(p)
		lateWoken = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Delay(10)
		for _, q := range k.procs {
			if q.name == "victim" {
				q.Kill(errors.New("abort"))
			}
		}
		p.Delay(100)
		c.Signal() // must skip the victim's stale slot
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !lateWoken {
		t.Error("late waiter never received the signal")
	}
}

// TestKillCondWaiterTimeoutSkipsStaleSlot: an armed Timeout whose waiter
// was killed before the deadline must not unpark the dead process.
func TestKillCondWaiterTimeoutSkipsStaleSlot(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var p *Proc
	p = k.Spawn("victim", func(p *Proc) {
		to := c.ArmTimeout(1000)
		defer to.Cancel()
		c.WaitOrTimeout(p, to)
		t.Error("victim woke instead of dying")
	})
	k.At(10, func() { p.Kill(errors.New("abort")) })
	if err := k.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
}

// TestKillBeforeFirstDispatch: killing a spawned-but-not-started process
// aborts it without running its body.
func TestKillBeforeFirstDispatch(t *testing.T) {
	k := NewKernel()
	ran := false
	p := k.SpawnAt(100, "victim", func(p *Proc) { ran = true })
	k.At(0, func() { p.Kill(errors.New("abort")) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("killed process body ran")
	}
}

// TestKillFinishedProcessIsNoop and double-kill keeps the first error.
func TestKillIdempotence(t *testing.T) {
	k := NewKernel()
	err1, err2 := errors.New("first"), errors.New("second")
	var got error
	p := k.Spawn("victim", func(p *Proc) {
		defer func() { got, _ = recover().(error) }()
		p.Park("forever")
	})
	k.At(10, func() { p.Kill(err1); p.Kill(err2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != err1 {
		t.Fatalf("recovered %v, want the first kill error", got)
	}
	p.Kill(err2) // after procDone: must be a no-op
}

// TestCloseUnwindsEveryUnfinishedProcess: Close ends a parked daemon, a
// parked process, one left in a Delay by a bounded run, one killed but not
// yet resumed and one that never started, runs their deferred handlers,
// runs no queued callback, and leaves no goroutine behind.
func TestCloseUnwindsEveryUnfinishedProcess(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	k := NewKernel()
	unwound := map[string]bool{}
	body := func(block func(p *Proc)) func(*Proc) {
		return func(p *Proc) {
			defer func() { unwound[p.Name()] = true }()
			block(p)
			t.Errorf("%s resumed past its block", p.Name())
		}
	}
	k.SpawnDaemon("daemon", body(func(p *Proc) { p.Park("forever") }))
	k.Spawn("parked", body(func(p *Proc) { p.Park("forever") }))
	k.Spawn("sleeper", body(func(p *Proc) { p.Delay(1000) }))
	killed := k.Spawn("killed", body(func(p *Proc) { p.Delay(1000) }))
	k.At(50, func() { killed.Kill(errors.New("abort")) }) // delivered at cycle 1000, which never comes
	k.SpawnAt(500, "unstarted", body(func(p *Proc) {}))
	k.Spawn("finished", func(p *Proc) { p.Delay(1) })
	k.At(200, func() { t.Error("Close ran a queued callback") })
	if err := k.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if len(unwound) != 0 {
		t.Fatalf("unwound %v before Close", unwound)
	}
	k.Close()
	if !unwound["daemon"] || !unwound["sleeper"] || unwound["unstarted"] {
		t.Errorf("unwound %v, want the daemon and the sleeper only", unwound)
	}
	if !unwound["parked"] || !unwound["killed"] {
		t.Errorf("unwound %v, want the parked and the killed process too", unwound)
	}
	for _, p := range k.procs {
		if p.state != procDone {
			t.Errorf("%s left %s", p.Name(), p.state)
		}
	}
	if at, ok := k.NextEventAt(); ok {
		t.Errorf("an event at %d still pending after Close", at)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after Close, %d before NewKernel", n, goroutines)
	}
}
