package vscc_test

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/taskrt"
	"vscc/internal/vscc"
)

// These tests drive the deterministic fault layer (Config.Faults, the
// -fault flag of cmd/pingpong and cmd/ablate) through a full vSCC
// system, the way mpbcheck_test.go drives the consistency checker: a
// crash of the host communication task must be survived through the
// watchdog, a persistently faulty device must push the protocol off its
// fast path, an unrecoverable loss must fail with a cycle-stamped error
// that reruns reproduce byte for byte, and an armed-but-idle schedule
// must change nothing at all.

// runFaultScenario plays reps cross-device ping-pong rounds of size
// bytes under scheme and faults, returning the delivered payload check,
// the system (for stats), and the run error.
func runFaultScenario(scheme vscc.Scheme, faults *fault.Config, size, reps int) (ok bool, sys *vscc.System, err error) {
	k := sim.NewKernel()
	sys, err = vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: scheme, Faults: faults})
	if err != nil {
		return false, nil, err
	}
	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		return false, nil, err
	}
	ok = true
	err = session.Run(func(r *rcce.Rank) {
		buf := make([]byte, size)
		for rep := 0; rep < reps; rep++ {
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i+rep) ^ 0x5C
			}
			if r.ID() == 0 {
				if err := r.Send(1, want); err != nil {
					panic(err)
				}
				if err := r.Recv(1, buf); err != nil {
					panic(err)
				}
			} else {
				if err := r.Recv(0, buf); err != nil {
					panic(err)
				}
				if err := r.Send(0, want); err != nil {
					panic(err)
				}
			}
			if !bytes.Equal(buf, want) {
				ok = false
			}
		}
	})
	return ok, sys, err
}

// TestFaultToleranceCrashRestart crashes the host task mid-transfer:
// the watchdog must restart it with caches invalidated and the
// engaged transfers must still deliver intact payloads.
func TestFaultToleranceCrashRestart(t *testing.T) {
	cfg := &fault.Config{
		Seed:     3,
		CrashAt:  []sim.Cycles{80_000},
		Recovery: fault.Recovery{WatchdogCycles: 40_000},
	}
	ok, sys, err := runFaultScenario(vscc.SchemeCachedGet, cfg, 4096, 10)
	if err != nil {
		t.Fatalf("run did not survive the crash: %v", err)
	}
	if !ok {
		t.Fatal("payload corrupted across the crash")
	}
	if got := sys.Task.Stats().HostRestarts; got != 1 {
		t.Errorf("HostRestarts = %d, want 1", got)
	}
	if sys.Injector.Stat("recover.watchdog-restart") == 0 {
		t.Error("no watchdog-restart recovery was traced")
	}
}

// TestFaultToleranceDegradation keeps dropping packets for one device
// until its recovery count crosses DegradeAfter: the protocol must
// abandon the vDMA fast path (traced as degraded sends) and still
// deliver every payload through the transparent flag protocol.
func TestFaultToleranceDegradation(t *testing.T) {
	cfg := &fault.Config{
		Seed:       5,
		DropPer10k: 600,
		Recovery:   fault.Recovery{DegradeAfter: 3},
	}
	ok, sys, err := runFaultScenario(vscc.SchemeVDMA, cfg, 4096, 12)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !ok {
		t.Fatal("payload corrupted after degradation")
	}
	if sys.Injector.Stat("recover.retx") == 0 {
		t.Error("no retransmission recovery was traced")
	}
	if sys.Injector.Stat("recover.degraded-send") == 0 {
		t.Error("the protocol never degraded despite the fault threshold")
	}
}

// TestFaultToleranceLostCompletionError disables the flag write-verify
// recovery while losing every host flag store: the engaged wait must
// exhaust its retry ladder and fail with a clear, cycle-stamped error —
// and a rerun must reproduce it byte for byte.
func TestFaultToleranceLostCompletionError(t *testing.T) {
	run := func() error {
		cfg := &fault.Config{
			Seed:           9,
			FlagLossPer10k: 10_000,
			Recovery: fault.Recovery{
				VerifyRetries:  -1,
				WaitBudget:     50_000,
				MaxWaitRetries: 3,
			},
		}
		_, _, err := runFaultScenario(vscc.SchemeRemotePut, cfg, 4096, 2)
		return err
	}
	err := run()
	if err == nil {
		t.Fatal("losing every flag write with verify disabled still completed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "lost completion after") {
		t.Errorf("error does not name the exhausted retry ladder:\n%s", msg)
	}
	if regexp.MustCompile(`at cycle (\d+)`).FindStringSubmatch(msg) == nil {
		t.Errorf("error does not report the cycle:\n%s", msg)
	}
	err2 := run()
	if err2 == nil || err2.Error() != msg {
		t.Errorf("rerun reported a different failure:\nfirst: %s\nrerun: %v", msg, err2)
	}
}

// TestFaultToleranceDeviceLostError crashes a whole device mid-run with
// transparent retry off: the peer's engaged wait must fail with an
// error matching rcce.ErrDeviceLost (errors.Is), naming the lost device
// and the cycle — and a rerun must reproduce it byte for byte.
func TestFaultToleranceDeviceLostError(t *testing.T) {
	run := func() error {
		cfg := &fault.Config{
			Seed: 11,
			// Down far longer than the whole retry ladder, so the wait
			// cannot simply outlast the outage.
			DevCrashAt: []fault.DeviceFault{{At: 80_000, Dev: 1, Down: 10_000_000}},
			Recovery: fault.Recovery{
				WaitBudget:     50_000,
				MaxWaitRetries: 3,
			},
		}
		_, _, err := runFaultScenario(vscc.SchemeCachedGet, cfg, 4096, 8)
		return err
	}
	err := run()
	if err == nil {
		t.Fatal("a crashed peer device with devretry off still completed")
	}
	if !errors.Is(err, rcce.ErrDeviceLost) {
		t.Errorf("error does not match rcce.ErrDeviceLost: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "device 1 lost") {
		t.Errorf("error does not name the lost device:\n%s", msg)
	}
	if regexp.MustCompile(`at cycle (\d+)`).FindStringSubmatch(msg) == nil {
		t.Errorf("error does not report the cycle:\n%s", msg)
	}
	err2 := run()
	if err2 == nil || err2.Error() != msg {
		t.Errorf("rerun reported a different failure:\nfirst: %s\nrerun: %v", msg, err2)
	}
}

// TestFaultToleranceDeviceCrashRetry crashes a device mid-run with
// transparent retry on: blocked waits must park until the rejoin, the
// rolled-forward checkpoint image must rebuild the device's MPB, the held
// PCIe frames must replay in the new epoch, and every payload must
// arrive intact — on two different schemes, reproducibly.
func TestFaultToleranceDeviceCrashRetry(t *testing.T) {
	// SchemeHWAccel regresses the replay-during-park race: replaying one
	// journaled frame parks the replay process on the wire, and arrivals
	// landing meanwhile may drain later journal entries first.
	for _, scheme := range []vscc.Scheme{vscc.SchemeCachedGet, vscc.SchemeVDMA, vscc.SchemeHWAccel} {
		run := func() (bool, *vscc.System, error) {
			cfg := &fault.Config{
				Seed:       13,
				DevCrashAt: []fault.DeviceFault{{At: 150_000, Dev: 1}},
				Recovery:   fault.Recovery{DeviceRetry: true},
			}
			return runFaultScenario(scheme, cfg, 4096, 12)
		}
		ok, sys, err := run()
		if err != nil {
			t.Fatalf("%v: run did not survive the device crash: %v", scheme, err)
		}
		if !ok {
			t.Fatalf("%v: payload corrupted across the device crash", scheme)
		}
		if got := sys.Injector.Stat("inject.devcrash"); got != 1 {
			t.Errorf("%v: inject.devcrash = %d, want 1", scheme, got)
		}
		if got := sys.Injector.Stat("recover.rejoin"); got != 1 {
			t.Errorf("%v: recover.rejoin = %d, want 1", scheme, got)
		}
		if st := sys.Membership.State(1); st != vscc.DevUp {
			t.Errorf("%v: device 1 finished in state %v, want up", scheme, st)
		}
		if ep := sys.Membership.Epoch(1); ep != 1 {
			t.Errorf("%v: device 1 epoch = %d, want 1", scheme, ep)
		}
		end := sys.Kernel.Now()
		sum := sys.Injector.Summary()
		_, sys2, err2 := run()
		if err2 != nil {
			t.Fatalf("%v: rerun failed: %v", scheme, err2)
		}
		if end2 := sys2.Kernel.Now(); end2 != end {
			t.Errorf("%v: rerun finished at cycle %d, first run at %d", scheme, end2, end)
		}
		if sum2 := sys2.Injector.Summary(); sum2 != sum {
			t.Errorf("%v: rerun event summary differs:\nfirst:\n%s\nrerun:\n%s", scheme, sum, sum2)
		}
	}
}

// TestFaultToleranceLinkDownRetry severs a device's PCIe link (memory
// survives, cores keep computing): held frames must replay after the
// link returns and the run must complete intact without any MPB wipe.
func TestFaultToleranceLinkDownRetry(t *testing.T) {
	cfg := &fault.Config{
		Seed:          17,
		DevLinkDownAt: []fault.DeviceFault{{At: 150_000, Dev: 1}},
		Recovery:      fault.Recovery{DeviceRetry: true},
	}
	ok, sys, err := runFaultScenario(vscc.SchemeRemotePut, cfg, 4096, 12)
	if err != nil {
		t.Fatalf("run did not survive the link outage: %v", err)
	}
	if !ok {
		t.Fatal("payload corrupted across the link outage")
	}
	if got := sys.Injector.Stat("inject.devlinkdown"); got != 1 {
		t.Errorf("inject.devlinkdown = %d, want 1", got)
	}
	if got := sys.Injector.Stat("recover.rejoin"); got != 1 {
		t.Errorf("recover.rejoin = %d, want 1", got)
	}
	if ep := sys.Membership.Epoch(1); ep != 1 {
		t.Errorf("device 1 epoch = %d, want 1", ep)
	}
}

// TestFaultToleranceArmedButIdle proves arming the machinery is free: a
// zero-rate schedule must finish at the exact cycle of a Faults=nil run
// on every scheme, with an empty event log.
func TestFaultToleranceArmedButIdle(t *testing.T) {
	for _, scheme := range []vscc.Scheme{vscc.SchemeHostRouted, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA} {
		run := func(faults *fault.Config) (sim.Cycles, *vscc.System) {
			k := sim.NewKernel()
			sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: scheme, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
			if err != nil {
				t.Fatal(err)
			}
			err = session.Run(func(r *rcce.Rank) {
				buf := make([]byte, 2048)
				if r.ID() == 0 {
					if err := r.Send(1, buf); err != nil {
						panic(err)
					}
				} else if err := r.Recv(0, buf); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return k.Now(), sys
		}
		armed, sys := run(&fault.Config{Seed: 1})
		bare, _ := run(nil)
		if armed != bare {
			t.Errorf("%v: armed-but-idle run finished at cycle %d, fault-free at %d", scheme, armed, bare)
		}
		if n := len(sys.Injector.Events()); n != 0 {
			t.Errorf("%v: idle schedule recorded %d events", scheme, n)
		}
	}
}

// TestFaultToleranceTaskrtDevCrash points the fault layer at the task
// runtime's irregular traffic: the Cholesky workload — dependence-driven
// steals and region movement rather than a fixed SPMD exchange — must
// survive a mid-run device crash with transparent retry, finish with
// regions byte-identical to the pure-Go serial reference, and rerun to
// the identical cycle and event ledger.
func TestFaultToleranceTaskrtDevCrash(t *testing.T) {
	ref := taskrt.New(taskrt.Config{})
	if err := taskrt.Build(ref, "cholesky", 3, 0, 4); err != nil {
		t.Fatalf("Build(ref): %v", err)
	}
	if err := ref.RunSerial(4); err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	run := func() (*taskrt.Runtime, *vscc.System, sim.Cycles) {
		cfg := &fault.Config{
			Seed:         21,
			DevCrashAt:   []fault.DeviceFault{{At: 120_000, Dev: 1, Down: 180_000}},
			CkptInterval: 40_000,
			Recovery:     fault.Recovery{DeviceRetry: true},
		}
		k := sim.NewKernel()
		sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA, Faults: cfg})
		if err != nil {
			t.Fatal(err)
		}
		session, err := sys.NewSessionAt([]rcce.Place{
			{Dev: 0, Core: 0}, {Dev: 1, Core: 0}, {Dev: 0, Core: 1}, {Dev: 1, Core: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Config{Scheme: vscc.SchemeVDMA})
		if err := taskrt.Build(rt, "cholesky", 3, 0, 4); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(session); err != nil {
			t.Fatalf("taskrt run did not survive the device crash: %v", err)
		}
		return rt, sys, k.Now()
	}
	rt, sys, end := run()
	if got := rt.StateHash(); got != ref.StateHash() {
		t.Error("cholesky under devcrash diverged from the serial reference")
	}
	if got := sys.Injector.Stat("inject.devcrash"); got != 1 {
		t.Errorf("inject.devcrash = %d, want 1", got)
	}
	if got := sys.Injector.Stat("recover.rejoin"); got != 1 {
		t.Errorf("recover.rejoin = %d, want 1", got)
	}
	sum := sys.Injector.Summary()
	rt2, sys2, end2 := run()
	if end2 != end {
		t.Errorf("rerun finished at cycle %d, first run at %d", end2, end)
	}
	if sum2 := sys2.Injector.Summary(); sum2 != sum {
		t.Errorf("rerun event summary differs:\nfirst:\n%s\nrerun:\n%s", sum, sum2)
	}
	if rt2.StateHash() != rt.StateHash() {
		t.Error("rerun region state differs")
	}
}
