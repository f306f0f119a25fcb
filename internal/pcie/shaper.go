package pcie

import (
	"fmt"
	"math"

	"vscc/internal/sim"
)

// TokenBucket is a deterministic kernel-clock bandwidth shaper: tokens
// (bytes, scaled by 1024 for sub-cycle precision like noc.Link) accrue
// at a fixed rate up to a burst capacity, and every shaped transfer
// spends its byte count. A transfer that finds the bucket in debt is
// delayed until the debt is paid — the classic token bucket with debt,
// which admits a single oversized burst immediately and throttles the
// traffic that follows it.
//
// The multi-tenant host task uses one bucket per tenant to cap the
// PCIe bandwidth a tenant may inject, independent of which device link
// the bytes cross. All state advances on the simulated clock only, so
// shaped runs stay byte-identical across reruns and sweep workers.
type TokenBucket struct {
	rateX1024 uint64 // token bytes per cycle, x1024
	capX1024  int64  // burst capacity, byte-x1024
	tokens    int64  // current level, byte-x1024; negative = debt
	last      sim.Cycles
}

// CheckRate rejects a rate a token bucket cannot shape: not finite, or
// rounding to zero at 1/1024 B/cycle (a debt that is never paid off).
func CheckRate(bytesPerCycle float64) error {
	if !(bytesPerCycle*1024 >= 0.5) || math.IsInf(bytesPerCycle, 0) {
		return fmt.Errorf("rate %g is not a finite number of at least 1/2048 B/cycle", bytesPerCycle)
	}
	return nil
}

// NewTokenBucket builds a shaper with the given sustained rate
// (bytes per cycle, may be fractional) and burst allowance in bytes.
// The bucket starts full. It panics on a rate CheckRate rejects.
func NewTokenBucket(bytesPerCycle float64, burstBytes int) *TokenBucket {
	if err := CheckRate(bytesPerCycle); err != nil {
		panic("pcie: token bucket with " + err.Error())
	}
	if burstBytes < 1 {
		burstBytes = 1
	}
	return &TokenBucket{
		rateX1024: uint64(bytesPerCycle*1024 + 0.5),
		capX1024:  int64(burstBytes) * 1024,
		tokens:    int64(burstBytes) * 1024,
	}
}

// advance accrues tokens up to now, clamped at the burst capacity.
func (b *TokenBucket) advance(now sim.Cycles) {
	if now <= b.last {
		return
	}
	b.tokens += int64(uint64(now-b.last) * b.rateX1024)
	if b.tokens > b.capX1024 {
		b.tokens = b.capX1024
	}
	b.last = now
}

// Take charges bytes against the bucket from process context. If the
// bucket is already in debt the caller is first delayed until the debt
// is paid; the charge itself may then push the bucket back into debt
// (throttling the next taker). It returns the cycles the caller was
// delayed. Nil-receiver and non-positive sizes are no-ops, so an
// unshaped tenant costs nothing.
func (b *TokenBucket) Take(p *sim.Proc, bytes int) sim.Cycles {
	if b == nil || bytes <= 0 {
		return 0
	}
	b.advance(p.Now())
	var wait sim.Cycles
	if b.tokens < 0 {
		debt := uint64(-b.tokens)
		wait = sim.Cycles((debt + b.rateX1024 - 1) / b.rateX1024)
	}
	b.tokens -= int64(bytes) * 1024
	if wait > 0 {
		p.Delay(wait)
		b.advance(p.Now())
	}
	return wait
}
