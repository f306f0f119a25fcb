// Fixture for the simapi rule: scheduling durations must not be computed
// by a subtraction that can go negative (sim.Cycles is unsigned and
// wraps). The stubs mirror the sim.Proc / sim.Kernel scheduling names.
package simapi

type cycles uint64

type proc struct{}

func (proc) Delay(d cycles) {}
func (proc) Now() cycles    { return 0 }

type kernel struct{}

func (kernel) After(d cycles, fn func()) {}
func (kernel) At(t cycles, fn func())    {}

func unclamped(p proc, k kernel, deadline, now cycles) {
	p.Delay(deadline - now)          // want "Delay duration computed by subtraction"
	k.After(deadline-now, func() {}) // want "After duration computed by subtraction"
	p.Delay(deadline - p.Now())      // want "Delay duration computed by subtraction"
}

func clamped(p proc, deadline, now cycles) {
	if deadline > now {
		p.Delay(deadline - now) // ok: the guard orders the operands
	}
	if now < deadline {
		p.Delay(deadline - now) // ok: either operand order matches
	}
	if deadline != now && deadline > now {
		p.Delay(deadline - now) // ok: guard found through &&
	}
}

func wrongGuard(p proc, deadline, now, other cycles) {
	if deadline > other {
		p.Delay(deadline - now) // want "Delay duration computed by subtraction"
	}
}

func absoluteDeadline(k kernel, t cycles) {
	k.At(t-1, func() {}) // ok: At takes an absolute time, not a difference
}

func additionsAreFine(p proc, base, cost cycles) {
	p.Delay(base + cost) // ok: no subtraction
}

func suppressedSite(p proc, deadline, now cycles) {
	//lint:ignore simapi deadline was computed as now+cost above
	p.Delay(deadline - now)
}
