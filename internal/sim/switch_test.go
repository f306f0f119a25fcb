package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// Tests for the process switch itself: a process is a coroutine the run
// loop resumes, whichever goroutine the run loop happens to be on, and
// the dispatch count and order are those of the (time, seq) queue alone.
// The pinned values are what the goroutine-and-channel kernel this one
// replaced computed for the same scenarios.

// switchScenario populates k with every shape of switch — timed delays
// that collide on a cycle, zero delays, a Cond ring, a queue drained by a
// daemon, a cancelled and a firing timeout, a process spawned mid-run —
// and returns the log the processes write as they go.
func switchScenario(k *Kernel) *[]string {
	log := &[]string{}
	note := func(who string) { *log = append(*log, fmt.Sprintf("%d:%s", k.Now(), who)) }

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ticker%d", i)
		step := Cycles(3 + i)
		k.Spawn(name, func(p *Proc) {
			for n := 0; n < 40; n++ {
				p.Delay(step)
				if n%5 == 0 {
					p.Delay(0)
				}
				note(name)
			}
		})
	}

	const ring = 5
	conds := make([]*Cond, ring)
	for i := range conds {
		conds[i] = NewCond(k, fmt.Sprintf("ring%d", i))
	}
	for i := 0; i < ring; i++ {
		name := fmt.Sprintf("ring%d", i)
		k.Spawn(name, func(p *Proc) {
			for lap := 0; lap < 6; lap++ {
				conds[i].Wait(p)
				note(name)
				if i == ring-1 {
					p.Delay(17) // the last member spaces the laps out
				}
				conds[(i+1)%ring].Signal()
			}
		})
	}
	k.At(9, func() { conds[0].Signal() })

	q := newWorkQueue(k, "work")
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			v := q.Pop(p)
			p.Delay(Cycles(v))
			note(fmt.Sprintf("served%d", v))
		}
	})
	k.Spawn("client", func(p *Proc) {
		for v := 1; v <= 8; v++ {
			q.Push(v)
			p.Delay(11)
		}
		k.Spawn("late", func(p *Proc) {
			p.Delay(2)
			note("late")
		})
	})

	never := NewCond(k, "never")
	k.Spawn("patient", func(p *Proc) {
		to := never.ArmTimeout(1000)
		p.Delay(30)
		to.Cancel()
		to = never.ArmTimeout(45)
		if never.WaitOrTimeout(p, to) {
			note("patient signalled")
		} else {
			note("patient timed out")
		}
	})
	return log
}

// TestRunUntilWindowsFromFreshGoroutinesMatchRun is the PDES pattern on
// one kernel: successive bounded windows, each driven from a goroutine
// that did not exist during the previous one, so every process is resumed
// by a different goroutine than the one it last suspended under. State,
// clock and Events() must equal one uninterrupted Run on a twin.
func TestRunUntilWindowsFromFreshGoroutinesMatchRun(t *testing.T) {
	ref := NewKernel()
	refLog := switchScenario(ref)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if ref.Now() != 240 || ref.Events() != 270 {
		t.Errorf("Run ended at cycle %d after %d events, want 240 after 270", ref.Now(), ref.Events())
	}

	for _, window := range []Cycles{1, 7, 64} {
		k := NewKernel()
		log := switchScenario(k)
		for {
			// The cancelled timeout stays queued past the end of the run;
			// Run discards it without moving the clock, so stop short of it.
			at, ok := k.NextEventAt()
			if !ok || at > ref.Now() {
				break
			}
			limit := min(at+window-1, ref.Now())
			errc := make(chan error)
			go func() { errc <- k.RunUntil(limit) }()
			if err := <-errc; err != nil {
				t.Fatalf("window %d: RunUntil(%d): %v", window, limit, err)
			}
		}
		if k.Now() != ref.Now() || k.Events() != ref.Events() {
			t.Errorf("window %d: ended at cycle %d after %d events, Run ends at %d after %d",
				window, k.Now(), k.Events(), ref.Now(), ref.Events())
		}
		if !reflect.DeepEqual(*log, *refLog) {
			t.Errorf("window %d: process log differs from Run's\n got %v\nwant %v", window, *log, *refLog)
		}
		if err := k.DeadlockError(); err != nil {
			t.Errorf("window %d: %v", window, err)
		}
		k.Close()
	}
}

// TestSameCycleCondRingPinned: n processes hand a wakeup around a ring of
// Conds without the clock moving — every switch is a same-cycle resume
// of another process, with nothing else queued. Events() and the end
// cycle are pinned.
func TestSameCycleCondRingPinned(t *testing.T) {
	const n, laps = 8, 25
	k := NewKernel()
	conds := make([]*Cond, n)
	for i := range conds {
		conds[i] = NewCond(k, fmt.Sprintf("c%d", i))
	}
	var order []int
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for lap := 0; lap < laps; lap++ {
				conds[i].Wait(p)
				order = append(order, i)
				conds[(i+1)%n].Signal()
			}
			p.Delay(Cycles(i)) // leave the ring at distinct cycles
		})
	}
	k.At(5, func() { conds[0].Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for j, i := range order {
		if i != j%n {
			t.Fatalf("wakeup %d went to p%d, want p%d", j, i, j%n)
		}
	}
	if len(order) != n*laps {
		t.Errorf("%d wakeups, want %d", len(order), n*laps)
	}
	if got, want := k.Events(), uint64(217); got != want {
		t.Errorf("Events() = %d, want %d", got, want)
	}
	if got, want := k.Now(), Cycles(12); got != want {
		t.Errorf("ended at cycle %d, want %d", got, want)
	}
}

// TestMixedCascadePinned: a same-cycle cascade that alternates callbacks,
// process resumes, zero delays, a stale wakeup for a finished process
// and a first dispatch, so a suspending process finds each kind of event
// next in the bucket. Order, Events() and the end cycle are pinned.
func TestMixedCascadePinned(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var order []string
	note := func(s string) { order = append(order, fmt.Sprintf("%d:%s", k.Now(), s)) }

	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Wait(p)
			note("a woke")
			k.After(0, func() { note("cb after a"); c.Signal() })
			p.Delay(0)
			note("a yielded")
		}
		p.Delay(3)
		note("a left")
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Wait(p)
			note("b woke")
			k.Spawn(fmt.Sprintf("child%d", i), func(p *Proc) { note(p.name); c.Signal() })
			p.Delay(0)
		}
		p.Delay(3)
		note("b left")
	})
	short := k.Spawn("short", func(p *Proc) { p.Delay(4) })
	k.At(4, func() {
		note("kick")
		k.schedule(k.now, short, nil) // a wakeup that will find short finished
		c.Broadcast()
	})
	k.At(4, func() { note("second callback") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"4:kick", "4:second callback", "4:a woke", "4:b woke", "4:cb after a",
		"4:a yielded", "4:child0", "4:a woke", "4:cb after a", "4:a yielded",
		"4:b woke", "4:child1", "4:a woke", "4:cb after a", "4:a yielded",
		"4:b woke", "4:child2", "7:a left", "7:b left",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("cascade order\n got %q\nwant %q", order, want)
	}
	if got, want := k.Events(), uint64(27); got != want {
		t.Errorf("Events() = %d, want %d", got, want)
	}
	if got, want := k.Now(), Cycles(7); got != want {
		t.Errorf("ended at cycle %d, want %d", got, want)
	}
}
