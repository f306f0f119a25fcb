package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleProcessDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end Cycles
	k.Spawn("p", func(p *Proc) {
		p.Delay(10)
		p.Delay(5)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15 {
		t.Errorf("process ended at %d, want 15", end)
	}
	if k.Now() != 15 {
		t.Errorf("kernel at %d, want 15", k.Now())
	}
}

func TestZeroDelayYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Delay(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1 b1 a2"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestSameCycleEventsRunInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, v, i, order)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, name := range []string{"x", "y", "z"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Delay(7)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); strings.Join(got, "") != strings.Join(first, "") {
			t.Fatalf("run %d differed: %v vs %v", i, got, first)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "never")
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock report %q does not name the blocked process", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Delay(10)
		c.Signal()
		p.Delay(10)
		c.Signal()
		p.Delay(10)
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "first second third" {
		t.Errorf("wake order = %q, want FIFO", got)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Delay(1)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestGateOpenBeforeWaitDoesNotBlock(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "g")
	g.Open()
	reached := false
	k.Spawn("p", func(p *Proc) {
		g.Wait(p)
		reached = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Error("wait on open gate blocked")
	}
}

func TestGateCloseReopens(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "g")
	var at Cycles
	k.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		at = p.Now()
	})
	k.Spawn("ctl", func(p *Proc) {
		p.Delay(50)
		g.Open()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 50 {
		t.Errorf("waiter released at %d, want 50", at)
	}
	if !g.IsOpen() {
		t.Error("gate should be open")
	}
	g.Close()
	if g.IsOpen() {
		t.Error("gate should be closed")
	}
}

func TestQueueFIFOAcrossProcesses(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Delay(3)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestRunUntilStopsAtTime(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Delay(10)
			ticks++
		}
	})
	if err := k.RunUntil(55); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d at t=55, want 5", ticks)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Errorf("ticks = %d after Run, want 100", ticks)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childRan bool
	var childTime Cycles
	k.Spawn("parent", func(p *Proc) {
		p.Delay(42)
		k.Spawn("child", func(c *Proc) {
			childRan = true
			childTime = c.Now()
		})
		p.Delay(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if childTime != 42 {
		t.Errorf("child started at %d, want 42", childTime)
	}
}

func TestCallbackOrderingWithProcesses(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(5, func() { order = append(order, "cb5") })
	k.Spawn("p", func(p *Proc) {
		p.Delay(5)
		order = append(order, "p5")
	})
	k.At(3, func() { order = append(order, "cb3") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "cb3 cb5 p5"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

// Property: for any sequence of positive delays, a single process ends at
// exactly the sum of its delays.
func TestPropertyDelaysSum(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var sum, end Cycles
		k.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Delay(Cycles(d))
				sum += Cycles(d)
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			return false
		}
		return end == sum && k.Now() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: N producer/consumer pairs always drain cleanly and values
// arrive in FIFO order per queue.
func TestPropertyQueuesDrainFIFO(t *testing.T) {
	f := func(nPairs uint8, nItems uint8) bool {
		pairs := int(nPairs%8) + 1
		items := int(nItems%32) + 1
		k := NewKernel()
		ok := true
		for q := 0; q < pairs; q++ {
			qu := NewQueue[int](k, "q")
			k.Spawn("prod", func(p *Proc) {
				for i := 0; i < items; i++ {
					p.Delay(Cycles(q + 1))
					qu.Push(i)
				}
			})
			k.Spawn("cons", func(p *Proc) {
				for i := 0; i < items; i++ {
					if qu.Pop(p) != i {
						ok = false
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSpawnAtPastPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Delay(100) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SpawnAt in the past did not panic")
		}
	}()
	k.SpawnAt(5, "late", func(p *Proc) {})
}
