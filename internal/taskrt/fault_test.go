package taskrt

import (
	"fmt"
	"strings"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// The taskrt fault matrix: the stencil workload run under each fault
// class, twice — the irregular, steal-driven traffic must complete with
// regions byte-identical to the fault-free reference, and the whole
// observable record (end cycle, completion order, injector events) must
// be rerun-identical, exactly as the SPMD fault matrix demands.

// faultRun executes the stencil under one parsed fault spec and
// returns the runtime, the system and the end cycle.
func faultRun(t *testing.T, spec string, scheme vscc.Scheme) (*Runtime, *vscc.System, sim.Cycles) {
	t.Helper()
	fcfg, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: scheme, Faults: fcfg})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	session, err := sys.NewSessionAt([]rcce.Place{
		{Dev: 0, Core: 0}, {Dev: 1, Core: 0}, {Dev: 0, Core: 1}, {Dev: 1, Core: 1},
	})
	if err != nil {
		t.Fatalf("NewSessionAt: %v", err)
	}
	rt := New(Config{Scheme: scheme})
	if err := Build(rt, "stencil", 4, 6, 4); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := rt.Run(session); err != nil {
		t.Fatalf("Run under %q: %v", spec, err)
	}
	return rt, sys, k.Now()
}

// faultDigest renders everything observable about one faulted run.
func faultDigest(rt *Runtime, sys *vscc.System, end sim.Cycles) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d hash=%s steals=%d doorbells=%d moved=%d\norder=%v\n",
		end, rt.StateHash(), rt.Stats().Steals, rt.Stats().Doorbells,
		rt.Stats().MovedBytes, rt.execOrder)
	if sys.Injector != nil {
		b.WriteString(sys.Injector.Summary())
	}
	return b.String()
}

// TestTaskrtFaultMatrix runs the {drop,dup,delay,stall,devcrash} matrix
// against the stencil: every class completes with the fault-free hash,
// injects at least one event of its kind, and reruns byte-identically.
func TestTaskrtFaultMatrix(t *testing.T) {
	const scheme = vscc.SchemeVDMA
	cleanRt, _, _ := faultRun(t, "", scheme)
	want := cleanRt.StateHash()
	for _, tc := range []struct {
		name string
		spec string
		stat string
	}{
		{"drop", "seed=9,drop=120", "inject.drop"},
		{"dup", "seed=9,dup=250", "inject.dup"},
		{"delay", "seed=9,delay=150:2500", "inject.delay"},
		{"stall", "seed=9,stall=60000:20000", "inject.stall"},
		{"devcrash", "seed=9,devcrash=80000:1:120000,ckpt=30000,devretry=1", "inject.devcrash"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rt, sys, end := faultRun(t, tc.spec, scheme)
			if got := rt.StateHash(); got != want {
				t.Errorf("hash diverged from fault-free run under %q", tc.spec)
			}
			if got := sys.Injector.Stat(tc.stat); got == 0 {
				t.Errorf("%s = 0 under %q; schedule never fired", tc.stat, tc.spec)
			}
			first := faultDigest(rt, sys, end)
			rt2, sys2, end2 := faultRun(t, tc.spec, scheme)
			if second := faultDigest(rt2, sys2, end2); second != first {
				t.Errorf("rerun diverged under %q:\nfirst:\n%s\nrerun:\n%s", tc.spec, first, second)
			}
		})
	}
}

// TestTaskrtDevCrashRecovery pins the devcrash path in detail: the
// crash must actually interrupt the run (later end cycle than the
// fault-free run), the device must rejoin, and all three workloads must
// still match their serial references.
func TestTaskrtDevCrashRecovery(t *testing.T) {
	const spec = "seed=5,devcrash=100000:1:150000,ckpt=40000,devretry=1"
	_, _, cleanEnd := faultRun(t, "", vscc.SchemeCachedGet)
	rt, sys, end := faultRun(t, spec, vscc.SchemeCachedGet)
	if end <= cleanEnd {
		t.Errorf("devcrash run ended at %d, fault-free at %d; outage had no effect", end, cleanEnd)
	}
	if got := sys.Injector.Stat("recover.rejoin"); got != 1 {
		t.Errorf("recover.rejoin = %d, want 1", got)
	}
	if st := sys.Membership.State(1); st != vscc.DevUp {
		t.Errorf("device 1 finished in state %v, want up", st)
	}
	ref := New(Config{})
	if err := Build(ref, "stencil", 4, 6, 4); err != nil {
		t.Fatalf("Build(ref): %v", err)
	}
	if err := ref.RunSerial(4); err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	if rt.StateHash() != ref.StateHash() {
		t.Error("stencil under devcrash diverged from the serial reference")
	}
}
