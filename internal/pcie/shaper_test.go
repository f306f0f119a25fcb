package pcie

import (
	"math"
	"testing"

	"vscc/internal/sim"
)

// TestTokenBucketShapesToRate drives a saturating sender through a
// bucket and checks the achieved rate converges on the configured cap.
func TestTokenBucketShapesToRate(t *testing.T) {
	k := sim.NewKernel()
	b := NewTokenBucket(0.5, 1024) // 0.5 B/cycle, 1 KB burst
	const burstBytes = 256
	const bursts = 64
	var done sim.Cycles
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < bursts; i++ {
			b.Take(p, burstBytes)
		}
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 16 KB at 0.5 B/cycle is 32768 cycles; the initial 1 KB burst
	// allowance and the debt model shave at most one burst's worth.
	total := bursts * burstBytes
	ideal := sim.Cycles(float64(total-1024) / 0.5)
	if done < ideal-2*burstBytes/1 || done > ideal+2048 {
		t.Fatalf("shaped completion at %d cycles, want about %d", done, ideal)
	}
}

// TestTokenBucketBurstThenDebt verifies the debt model: an oversized
// first transfer passes immediately, the next one pays its debt.
func TestTokenBucketBurstThenDebt(t *testing.T) {
	k := sim.NewKernel()
	b := NewTokenBucket(1.0, 100)
	var firstWait, secondWait sim.Cycles
	k.Spawn("sender", func(p *sim.Proc) {
		firstWait = b.Take(p, 500) // 400 bytes of debt
		secondWait = b.Take(p, 10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firstWait != 0 {
		t.Fatalf("first (burst) take waited %d cycles, want 0", firstWait)
	}
	if secondWait != 400 {
		t.Fatalf("second take waited %d cycles, want 400 (the debt)", secondWait)
	}
}

// TestTokenBucketIdle verifies tokens accrue only up to the cap and
// that a nil bucket is a free pass.
func TestTokenBucketIdle(t *testing.T) {
	k := sim.NewKernel()
	b := NewTokenBucket(2.0, 64)
	k.Spawn("sender", func(p *sim.Proc) {
		b.Take(p, 64)
		p.Delay(10_000) // far more than needed to refill
		b.advance(p.Now())
		if lvl := b.tokens / 1024; lvl != 64 {
			t.Errorf("idle level %d, want clamped at cap 64", lvl)
		}
		var nb *TokenBucket
		if w := nb.Take(p, 1<<20); w != 0 {
			t.Errorf("nil bucket waited %d cycles", w)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTokenBucketRejectsUnshapeableRates: a rate that is not finite, not
// positive or rounds to zero at the bucket's resolution panics at
// construction, not with a divide by zero at the first debt.
func TestTokenBucketRejectsUnshapeableRates(t *testing.T) {
	for _, rate := range []float64{0, -1, 0.0001, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTokenBucket(%g) did not panic", rate)
				}
			}()
			NewTokenBucket(rate, 4096)
		}()
		if CheckRate(rate) == nil {
			t.Errorf("CheckRate(%g) accepted", rate)
		}
	}
	// The smallest rate that does not round to zero still shapes.
	k := sim.NewKernel()
	b := NewTokenBucket(1.0/2048, 4096)
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.Take(p, 4096)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
