// Package chaos is a deterministic fault-campaign engine: it enumerates
// fault schedules by a seeded walk over site x device x cycle-window —
// the sites come straight out of the fault.ParseSpec grammar — runs each
// point through an existing recovery harness (the devretry scheduler or
// the re-executing task runtime), checks the target's invariants plus
// rerun byte-identity, and shrinks any failing schedule to a minimal
// reproducer spec it reports verbatim.
//
// Everything is a pure function of (seed, index): a campaign replays
// byte-identically from its seed alone, and a single failing point can
// be re-examined without re-running the walk that found it.
package chaos

import (
	"fmt"
	"strings"

	"vscc/internal/fault"
	"vscc/internal/sim"
)

// Sites are the fault-space dimensions the generator walks. Each is a
// repeatable key of the fault.ParseSpec grammar; the rendered tokens of
// a schedule are appended to the target's base spec.
var Sites = []string{"devcrash", "devlinkdown", "stall"}

// Generation quanta: cycle windows are walked on coarse grids so that
// distinct points exercise genuinely distinct interleavings instead of
// off-by-a-cycle neighbours, and so a printed reproducer stays legible.
const (
	atQuantum  = sim.Cycles(20_000)  // injection cycle grid
	atSlots    = 25                  // At in [20k, 500k]
	devQuantum = sim.Cycles(50_000)  // device outage grid
	devSlots   = 7                   // Down in [100k, 400k]
	devBase    = sim.Cycles(100_000) // shortest outage
	stallQuant = sim.Cycles(10_000)  // host stall grid
	stallSlots = 8                   // For in [10k, 80k]
)

// Fault is one point of the fault space: a ParseSpec site, the device
// it lands on (ignored by host-wide sites such as stall), the injection
// cycle and the duration (outage for device sites, freeze for stall).
type Fault struct {
	Site string
	Dev  int
	At   sim.Cycles
	Dur  sim.Cycles
}

// Token renders the fault as the ParseSpec token that injects it.
func (f Fault) Token() string {
	if f.Site == "stall" {
		return fmt.Sprintf("stall=%d:%d", f.At, f.Dur)
	}
	return fmt.Sprintf("%s=%d:%d:%d", f.Site, f.At, f.Dev, f.Dur)
}

// Spec joins a target's base spec with the schedule's fault tokens into
// one ParseSpec input. The result is the reproducer currency of the
// whole package: it is what a violation report prints and what a
// re-check parses.
func Spec(base string, faults []Fault) string {
	toks := make([]string, 0, len(faults)+1)
	if base != "" {
		toks = append(toks, base)
	}
	for _, f := range faults {
		toks = append(toks, f.Token())
	}
	return strings.Join(toks, ",")
}

// Schedule is one campaign point: the faults injected on top of a
// target's base spec.
type Schedule struct {
	Index  int
	Faults []Fault
}

// rng is a splitmix64 stream — tiny, seedable, and stable across Go
// releases, unlike math/rand, whose stream the standard library does
// not pin.
type rng struct{ state uint64 }

func (r *rng) next() uint64 { return fault.SplitMix64(&r.state) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// PointSchedule derives campaign point index from (seed, index) alone,
// so any single point replays without walking its predecessors.
func PointSchedule(seed uint64, index, devices, maxFaults int) Schedule {
	if maxFaults < 1 {
		maxFaults = 1
	}
	if devices < 1 {
		devices = 1
	}
	r := &rng{state: seed ^ (uint64(index+1) * 0xd1342543de82ef95)}
	n := 1 + r.intn(maxFaults)
	faults := make([]Fault, n)
	for i := range faults {
		f := Fault{Site: Sites[r.intn(len(Sites))], Dev: r.intn(devices)}
		f.At = atQuantum * sim.Cycles(1+r.intn(atSlots))
		if f.Site == "stall" {
			f.Dev = 0
			f.Dur = stallQuant * sim.Cycles(1+r.intn(stallSlots))
		} else {
			f.Dur = devBase + devQuantum*sim.Cycles(r.intn(devSlots))
		}
		faults[i] = f
	}
	return Schedule{Index: index, Faults: faults}
}

// Target is one harness the campaign drives. Run executes the full
// spec (base + fault tokens) once and returns a digest of everything
// observable about the run plus any invariant violations. Run must be
// a pure function of the spec: the campaign calls it twice per point
// and flags digest divergence as a violation in its own right.
type Target struct {
	Name string
	Base string
	Run  func(spec string) (digest string, problems []string)
}

// Violation reports one failing campaign point, already shrunk.
type Violation struct {
	Target string
	Seed   uint64
	Index  int
	// Spec is the full failing spec as generated.
	Spec string
	// Problems are the invariant violations of the unshrunk point.
	Problems []string
	// Minimized is the shrunk fault set and MinSpec its rendered spec:
	// a complete ParseSpec input that still violates the invariants,
	// from which no single fault can be removed.
	Minimized []Fault
	MinSpec   string
}

// Error renders the violation as the reproducer report the CLI prints.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: target %s point %d (seed %d) violates invariants:\n", v.Target, v.Index, v.Seed)
	for _, p := range v.Problems {
		fmt.Fprintf(&b, "  - %s\n", p)
	}
	fmt.Fprintf(&b, "full spec: %s\nminimized reproducer (%d faults):\n%s\n",
		v.Spec, len(v.Minimized), v.MinSpec)
	return b.String()
}

// Campaign is a seeded walk of N points, round-robined across Targets.
type Campaign struct {
	Seed      uint64
	N         int
	Devices   int
	MaxFaults int
	Targets   []Target
	// Log, when set, receives one progress line per point.
	Log func(format string, args ...any)
}

// check runs one fault set through the target twice: invariant
// violations from either run are returned as-is, and a digest mismatch
// between the runs becomes a violation of the determinism invariant.
func check(t Target, faults []Fault) (spec string, problems []string) {
	spec = Spec(t.Base, faults)
	d1, p1 := t.Run(spec)
	if len(p1) > 0 {
		return spec, p1
	}
	d2, p2 := t.Run(spec)
	if len(p2) > 0 {
		return spec, p2
	}
	if d1 != d2 {
		return spec, []string{"rerun digest diverged from the first run (nondeterministic recovery)"}
	}
	return spec, nil
}

// Run walks the campaign. It stops at the first failing point and
// returns its shrunk Violation; a fully clean walk returns (points, nil)
// with points == N.
func (c *Campaign) Run() (points int, v *Violation) {
	if c.MaxFaults == 0 {
		c.MaxFaults = 4
	}
	if c.Devices == 0 {
		c.Devices = 2
	}
	for i := 0; i < c.N; i++ {
		t := c.Targets[i%len(c.Targets)]
		sch := PointSchedule(c.Seed, i, c.Devices, c.MaxFaults)
		spec, problems := check(t, sch.Faults)
		if c.Log != nil {
			status := "ok"
			if len(problems) > 0 {
				status = "FAIL"
			}
			c.Log("point %d target=%s faults=%d %s spec=%s", i, t.Name, len(sch.Faults), status, spec)
		}
		if len(problems) > 0 {
			min := Shrink(sch.Faults, func(f []Fault) bool {
				_, p := check(t, f)
				return len(p) > 0
			})
			return i, &Violation{
				Target:    t.Name,
				Seed:      c.Seed,
				Index:     i,
				Spec:      spec,
				Problems:  problems,
				Minimized: min,
				MinSpec:   Spec(t.Base, min),
			}
		}
	}
	return c.N, nil
}

// Shrink reduces a failing fault set to a 1-minimal one: removing any
// single remaining fault makes the failure disappear. It is ddmin at
// granularity one, run to a fixpoint; with the small fault counts the
// generator emits, finer-grained chunking buys nothing. The predicate
// must be deterministic — it is the same check the campaign ran.
func Shrink(faults []Fault, failing func([]Fault) bool) []Fault {
	cur := append([]Fault(nil), faults...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := make([]Fault, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if failing(cand) {
				cur, changed = cand, true
				i-- // the slot now holds an untried fault
			}
		}
	}
	return cur
}
