package sim

import (
	"testing"
)

// BenchmarkKernelEventThroughput measures the kernel's raw event
// dispatch rate — the equivalent of a training-step time for this
// repository, since every figure is millions of these events. ns/op is
// the cost of one event; allocs/op is the per-event allocation count
// the hot path pays.
//
//	go test ./internal/sim -bench=KernelEventThroughput -benchmem
func BenchmarkKernelEventThroughput(b *testing.B) {
	// callback-chain: each callback schedules the next one cycle later.
	// Exercises one heap push + one heap pop per event with a queue depth
	// of one — the pure queue-machinery cost.
	b.Run("callback-chain", func(b *testing.B) {
		k := NewKernel()
		n := 0
		var step func()
		step = func() {
			n++
			if n < b.N {
				k.After(1, step)
			}
		}
		k.After(1, step)
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	})

	// same-cycle-chain: each callback schedules the next at the *current*
	// cycle. This is the pattern condition-variable wakeup cascades and
	// zero-latency forwarding hops produce; a same-cycle fast path can
	// dispatch it without touching the heap at all.
	b.Run("same-cycle-chain", func(b *testing.B) {
		k := NewKernel()
		n := 0
		var step func()
		step = func() {
			n++
			if n < b.N {
				k.After(0, step)
			}
		}
		k.After(1, step)
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	})

	// deep-queue: N pre-scheduled callbacks at distinct times, then one
	// drain. Exercises heap behaviour at realistic queue depths (sift
	// costs are logarithmic in this depth).
	b.Run("deep-queue-1024", func(b *testing.B) {
		const depth = 1024
		k := NewKernel()
		n := 0
		var refill func()
		refill = func() {
			n++
			if n < b.N {
				k.After(Cycles(1+n%depth), refill)
			}
		}
		for i := 0; i < depth && i < b.N; i++ {
			k.After(Cycles(1+i), refill)
			n++
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	})

	// process-delay: a single process advancing the clock b.N times.
	// Exercises the yield/resume coroutine switch plus the queue.
	b.Run("process-delay", func(b *testing.B) {
		k := NewKernel()
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Delay(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	})

	// cond-pingpong: two processes alternating through condition
	// variables — the shape of every blocking protocol in the model.
	b.Run("cond-pingpong", func(b *testing.B) {
		k := NewKernel()
		ping := NewCond(k, "ping")
		pong := NewCond(k, "pong")
		turn := 0
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn != 0 {
					ping.Wait(p)
				}
				turn = 1
				pong.Signal()
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn != 1 {
					pong.Wait(p)
				}
				turn = 0
				ping.Signal()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	})

	// timed-wait-expiry: one process sleeping b.N times on a Cond nobody
	// signals, each wait ended by its deadline — an idle taskrt worker.
	// One op is an armed deadline plus its expiry; its cost must not grow
	// with b.N.
	b.Run("timed-wait-expiry", func(b *testing.B) {
		k := NewKernel()
		c := NewCond(k, "never")
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				c.WaitOrTimeout(p, c.ArmTimeout(1))
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

func reportEventsPerSec(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/s")
	}
}

// BenchmarkWaitFor is one budgeted wait, a taskrt worker's idle nap: one
// process waits with a 10-cycle budget while another signals every 14
// cycles, so waits both wake and expire. One op is one WaitFor; after
// the first it allocates nothing.
//
//	go test ./internal/sim -run=^$ -bench=WaitFor -benchmem
func BenchmarkWaitFor(b *testing.B) {
	k := NewKernel()
	c := NewCond(k, "doorbell")
	done := false
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.WaitFor(p, 10)
		}
		done = true
	})
	k.Spawn("signaller", func(p *Proc) {
		for !done {
			p.Delay(14)
			c.Signal()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondTwoWaiters is the two cores of a tile taking turns to nap
// on the tile's Cond, each nap ended by its deadline, so the waiter list
// never drains. One op is one wait; the array holding the waiters stays
// at two slots however large b.N is.
func BenchmarkCondTwoWaiters(b *testing.B) {
	k := NewKernel()
	c := NewCond(k, "tile")
	for i := 0; i < 2; i++ {
		k.SpawnAt(Cycles(5*i), "core", func(p *Proc) {
			for n := i; n < b.N; n += 2 {
				c.WaitFor(p, 10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
