package fault

import (
	"reflect"
	"testing"

	"vscc/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if v := inj.PacketFault("pcie.h2d", 0); v != (PacketVerdict{}) {
		t.Errorf("nil injector issued a packet fault: %+v", v)
	}
	if inj.Inject(FlagLoss, 0) || inj.Inject(CacheCorrupt, 0) || inj.Inject(MMIOCorrupt, 0) {
		t.Error("nil injector injected a fault")
	}
	if inj.Degraded(0) {
		t.Error("nil injector reports degradation")
	}
	inj.RecordRecovery("retx", "pcie.h2d", 0) // must not panic
	inj.RecordInjection("stall", "host", -1)
	if got := inj.Recovery(); got != DefaultRecovery() {
		t.Errorf("nil injector Recovery() = %+v, want defaults", got)
	}
	if inj.Events() != nil || inj.Stat("inject.drop") != 0 || inj.Summary() != "" {
		t.Error("nil injector has history")
	}
	if inj.Pick("x", 0, 8) != 0 {
		t.Error("nil injector Pick != 0")
	}
}

// Equal seeds must reproduce the identical verdict sequence; a different
// seed must diverge. This is the property every recovery test leans on.
func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []PacketVerdict {
		inj := NewInjector(sim.NewKernel(), Config{Seed: seed, DropPer10k: 2000, DupPer10k: 1000, DelayPer10k: 1000, CorruptPer10k: 500})
		var out []PacketVerdict
		for i := 0; i < 200; i++ {
			out = append(out, inj.PacketFault("pcie.h2d", 1))
		}
		return out
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different verdict sequences")
	}
	if reflect.DeepEqual(a, draw(43)) {
		t.Fatal("different seeds produced identical verdict sequences")
	}
	faulty := 0
	for _, v := range a {
		if v != (PacketVerdict{}) {
			faulty++
		}
		if v.Drop && (v.Dup || v.Corrupt) || v.Dup && v.Corrupt {
			t.Fatalf("verdict mixes exclusive faults: %+v", v)
		}
	}
	if faulty == 0 || faulty == len(a) {
		t.Errorf("%d/%d verdicts faulty; rates are not being applied", faulty, len(a))
	}
}

// Streams are keyed by (site, dev): traffic on one site must not perturb
// decisions on another.
func TestSiteStreamsAreIndependent(t *testing.T) {
	seq := func(interleave bool) []bool {
		inj := NewInjector(sim.NewKernel(), Config{Seed: 7, FlagLossPer10k: 3000})
		var out []bool
		for i := 0; i < 100; i++ {
			if interleave {
				inj.PacketFault("pcie.d2h", 0) // extra traffic elsewhere
			}
			out = append(out, inj.Inject(FlagLoss, 2))
		}
		return out
	}
	if !reflect.DeepEqual(seq(false), seq(true)) {
		t.Fatal("flag-loss stream perturbed by packet traffic on another site")
	}
}

func TestRatesAreExtremes(t *testing.T) {
	inj := NewInjector(sim.NewKernel(), Config{DropPer10k: 10_000})
	for i := 0; i < 50; i++ {
		if !inj.PacketFault("pcie.h2d", 0).Drop {
			t.Fatal("rate 10000/10k did not always drop")
		}
	}
	if inj.Stat("inject.drop") != 50 {
		t.Errorf("drop stat = %d, want 50", inj.Stat("inject.drop"))
	}
	none := NewInjector(sim.NewKernel(), Config{})
	for i := 0; i < 50; i++ {
		if none.PacketFault("pcie.h2d", 0) != (PacketVerdict{}) {
			t.Fatal("zero rates injected a fault")
		}
	}
	if len(none.Events()) != 0 {
		t.Error("zero-rate injector logged events")
	}
}

func TestDegradedThreshold(t *testing.T) {
	inj := NewInjector(sim.NewKernel(), Config{Recovery: Recovery{DegradeAfter: 3}})
	for i := 0; i < 2; i++ {
		inj.RecordRecovery("retx", "pcie.h2d", 1)
	}
	if inj.Degraded(1) {
		t.Error("degraded below threshold")
	}
	inj.RecordRecovery("wait-timeout", "vscc", 1)
	if !inj.Degraded(1) {
		t.Error("not degraded at threshold")
	}
	if inj.Degraded(0) {
		t.Error("device 0 degraded without recoveries")
	}
	// Host-level recoveries (dev -1) never count toward degradation.
	off := NewInjector(sim.NewKernel(), Config{Recovery: Recovery{DegradeAfter: 1}})
	off.RecordRecovery("watchdog", "host", -1)
	if off.Degraded(-1) || off.Degraded(0) {
		t.Error("dev=-1 recovery drove degradation")
	}
}

// TestPromoteHysteresis tables the re-promotion latch: PromoteAfter
// consecutive clean transfers reset a degraded device to its fast path,
// any recovery resets the streak, and -1 keeps the legacy permanent
// latch. The hysteresis is the fix for the one-way degradation of the
// original design, where a single early fault burst banished a device
// from its fast path for the rest of a long run.
func TestPromoteHysteresis(t *testing.T) {
	cases := []struct {
		name         string
		promoteAfter int
		script       func(inj *Injector) // drive recoveries/cleans
		degraded     bool                // expected Degraded(1) afterwards
		promotions   int64               // expected recover.promote count
	}{
		{
			name:         "clean streak re-promotes",
			promoteAfter: 4,
			script: func(inj *Injector) {
				for i := 0; i < 3; i++ {
					inj.RecordRecovery("retx", "pcie.h2d", 1)
				}
				for i := 0; i < 4; i++ {
					inj.CleanTransfer(1)
				}
			},
			degraded:   false,
			promotions: 1,
		},
		{
			name:         "streak below threshold stays degraded",
			promoteAfter: 4,
			script: func(inj *Injector) {
				for i := 0; i < 3; i++ {
					inj.RecordRecovery("retx", "pcie.h2d", 1)
				}
				for i := 0; i < 3; i++ {
					inj.CleanTransfer(1)
				}
			},
			degraded:   true,
			promotions: 0,
		},
		{
			name:         "recovery resets the streak",
			promoteAfter: 4,
			script: func(inj *Injector) {
				for i := 0; i < 3; i++ {
					inj.RecordRecovery("retx", "pcie.h2d", 1)
				}
				for i := 0; i < 3; i++ {
					inj.CleanTransfer(1)
				}
				inj.RecordRecovery("retx", "pcie.h2d", 1) // streak back to 0
				for i := 0; i < 3; i++ {
					inj.CleanTransfer(1)
				}
			},
			degraded:   true,
			promotions: 0,
		},
		{
			name:         "permanent latch with PromoteAfter=-1",
			promoteAfter: -1,
			script: func(inj *Injector) {
				for i := 0; i < 3; i++ {
					inj.RecordRecovery("retx", "pcie.h2d", 1)
				}
				for i := 0; i < 1000; i++ {
					inj.CleanTransfer(1)
				}
			},
			degraded:   true,
			promotions: 0,
		},
		{
			name:         "sub-threshold recoveries are forgiven silently",
			promoteAfter: 4,
			script: func(inj *Injector) {
				// 2 recoveries (below DegradeAfter=3), then a clean
				// streak: the count resets without a promotion event, so
				// ancient faults cannot pool with fresh ones.
				inj.RecordRecovery("retx", "pcie.h2d", 1)
				inj.RecordRecovery("retx", "pcie.h2d", 1)
				for i := 0; i < 4; i++ {
					inj.CleanTransfer(1)
				}
				inj.RecordRecovery("retx", "pcie.h2d", 1)
				inj.RecordRecovery("retx", "pcie.h2d", 1)
			},
			degraded:   false, // 2+2 recoveries, but the streak wiped the first 2
			promotions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := NewInjector(sim.NewKernel(), Config{
				Recovery: Recovery{DegradeAfter: 3, PromoteAfter: tc.promoteAfter},
			})
			tc.script(inj)
			if got := inj.Degraded(1); got != tc.degraded {
				t.Errorf("Degraded(1) = %v, want %v", got, tc.degraded)
			}
			if got := inj.Stat("recover.promote"); got != tc.promotions {
				t.Errorf("recover.promote = %d, want %d", got, tc.promotions)
			}
			// The untouched device is never disturbed.
			if inj.Degraded(0) || inj.RecoveryCount(0) != 0 {
				t.Error("device 0 state disturbed")
			}
		})
	}
	// Nil-receiver safety of the new surface.
	var nilInj *Injector
	nilInj.CleanTransfer(1)
	if nilInj.RecoveryCount(1) != 0 {
		t.Error("nil injector reported a recovery count")
	}
}

// TestParseSpecDeviceFaults covers the device-fault grammar added for
// the membership machinery.
func TestParseSpecDeviceFaults(t *testing.T) {
	cfg, err := ParseSpec("devcrash=200000:1,devcrash=900000:0:400000,devlinkdown=5000:2,ckpt=250000,rejoin=150000,promote=16,devretry=1")
	if err != nil {
		t.Fatal(err)
	}
	want := &Config{
		DevCrashAt: []DeviceFault{
			{At: 200000, Dev: 1},
			{At: 900000, Dev: 0, Down: 400000},
		},
		DevLinkDownAt: []DeviceFault{{At: 5000, Dev: 2}},
		CkptInterval:  250000,
		RejoinCycles:  150000,
		Recovery:      Recovery{PromoteAfter: 16, DeviceRetry: true},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("ParseSpec:\n got %+v\nwant %+v", cfg, want)
	}
	if !cfg.DeviceFaultsArmed() {
		t.Error("device schedule not reported as armed")
	}
	if (&Config{Seed: 1}).DeviceFaultsArmed() || (*Config)(nil).DeviceFaultsArmed() {
		t.Error("armed without any device fault")
	}
	for _, bad := range []string{"devcrash=5", "devcrash=a:1", "devcrash=1:b", "devcrash=1:2:c", "devcrash=1:2:3:4", "devlinkdown=x", "ckpt=x", "rejoin=x", "promote=x", "devretry=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestRecoveryDefaults(t *testing.T) {
	r := (Recovery{}).withDefaults()
	if r != DefaultRecovery() {
		t.Errorf("zero Recovery resolved to %+v, want defaults", r)
	}
	r = (Recovery{VerifyRetries: -1, WaitBudget: 5, DegradeAfter: 2}).withDefaults()
	if r.VerifyRetries != -1 {
		t.Error("VerifyRetries=-1 (disabled) was overwritten")
	}
	if r.WaitBudget != 5 || r.DegradeAfter != 2 {
		t.Error("explicit fields overwritten by defaults")
	}
	if r.MaxRetx != DefaultRecovery().MaxRetx {
		t.Error("zero MaxRetx not defaulted")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42, drop=200,dup=50,delay=100:5000,corrupt=20,flagloss=9,cachecorrupt=8,mmio=7,stall=50000:20000,stall=90000:1000,crash=400000,retx=111,maxretx=3,budget=222,waitretries=4,watchdog=333,verify=-1,degrade=10")
	if err != nil {
		t.Fatal(err)
	}
	want := &Config{
		Seed: 42, DropPer10k: 200, DupPer10k: 50, DelayPer10k: 100, DelayCycles: 5000,
		CorruptPer10k: 20, FlagLossPer10k: 9, CacheCorruptPer10k: 8, MMIOCorruptPer10k: 7,
		StallAt: []StallWindow{{At: 50000, For: 20000}, {At: 90000, For: 1000}},
		CrashAt: []sim.Cycles{400000},
		Recovery: Recovery{
			RetxTimeout: 111, MaxRetx: 3, WaitBudget: 222, MaxWaitRetries: 4,
			WatchdogCycles: 333, VerifyRetries: -1, DegradeAfter: 10,
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("ParseSpec:\n got %+v\nwant %+v", cfg, want)
	}
	// verify and promote are counts whose -1 has a documented meaning.
	if cfg, err := ParseSpec("verify=-1,promote=-1"); err != nil || cfg.Recovery.VerifyRetries != -1 || cfg.Recovery.PromoteAfter != -1 {
		t.Errorf("verify=-1,promote=-1 = (%+v, %v), want both -1", cfg, err)
	}
	if cfg, err := ParseSpec("  "); err != nil || cfg != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", cfg, err)
	}
	for _, bad := range []string{"drop", "bogus=1", "drop=x", "stall=5", "stall=a:b", "seed=-1", "delay=1:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestParseSpecErrorPositions pins the exact diagnostics: a bad spec
// names its offending token and the token's byte offset in the trimmed
// spec, so machine-assembled specs (chaos reproducers, CI matrices)
// pinpoint their own defects.
func TestParseSpecErrorPositions(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"drop", `fault: spec token "drop" at byte 0 is not key=value`},
		{"seed=1,bogus=1", `fault: spec token "bogus=1" at byte 7: unknown setting`},
		{"seed=1,drop=x", `fault: spec token "drop=x" at byte 7: bad number "x"`},
		{"seed=z", `fault: spec token "seed=z" at byte 0: bad seed "z"`},
		{"seed=1,stall=5", `fault: spec token "stall=5" at byte 7: want AT:FOR, got "5"`},
		{"seed=1,devcrash=5", `fault: spec token "devcrash=5" at byte 7: want AT:DEV[:DOWN], got "5"`},
		{"seed=1,devlinkdown=1:2:3:4", `fault: spec token "devlinkdown=1:2:3:4" at byte 7: want AT:DEV[:DOWN], got "1:2:3:4"`},
		{"seed=1,drop=10,delay=1:x", `fault: spec token "delay=1:x" at byte 15: bad number "x"`},
		// Inter-token spaces are trimmed from the token but kept in the
		// offsets, which index the spec as the caller wrote it.
		{"seed=1, drop=x", `fault: spec token "drop=x" at byte 8: bad number "x"`},
		{"seed=1,,drop=10", `fault: spec token "" at byte 7 is not key=value`},
		// Every cycle-valued key rejects a negative count, which would
		// wrap the unsigned sim.Cycles to about 2^64.
		{"seed=1,stall=1000:-1", `fault: spec token "stall=1000:-1" at byte 7: negative cycle count "-1"`},
		{"stall=-1:10", `fault: spec token "stall=-1:10" at byte 0: negative cycle count "-1"`},
		{"crash=-5", `fault: spec token "crash=-5" at byte 0: negative cycle count "-5"`},
		{"devcrash=-1:1:-1", `fault: spec token "devcrash=-1:1:-1" at byte 0: negative cycle count "-1"`},
		{"devlinkdown=5:1:-2", `fault: spec token "devlinkdown=5:1:-2" at byte 0: negative cycle count "-2"`},
		{"drop=1,delay=10:-5", `fault: spec token "delay=10:-5" at byte 7: negative cycle count "-5"`},
		{"ckpt=-1", `fault: spec token "ckpt=-1" at byte 0: negative cycle count "-1"`},
		{"rejoin=-1", `fault: spec token "rejoin=-1" at byte 0: negative cycle count "-1"`},
		{"retx=-3", `fault: spec token "retx=-3" at byte 0: negative cycle count "-3"`},
		{"budget=-1", `fault: spec token "budget=-1" at byte 0: negative cycle count "-1"`},
		{"watchdog=-1", `fault: spec token "watchdog=-1" at byte 0: negative cycle count "-1"`},
		// A rate is per 10k decisions: below 0 or above 10 000 it names
		// no probability.
		{"seed=1,drop=-500", `fault: spec token "drop=-500" at byte 7: rate "-500" per 10k outside [0, 10000]`},
		{"seed=1,mmio=20000", `fault: spec token "mmio=20000" at byte 7: rate "20000" per 10k outside [0, 10000]`},
		{"delay=10001:50", `fault: spec token "delay=10001:50" at byte 0: rate "10001" per 10k outside [0, 10000]`},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want %q", c.spec, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseSpec(%q)\n got %q\nwant %q", c.spec, err.Error(), c.want)
		}
	}
}

func TestEventLogCapsAndSummary(t *testing.T) {
	inj := NewInjector(sim.NewKernel(), Config{FlagLossPer10k: 10_000})
	for i := 0; i < maxEvents+10; i++ {
		inj.Inject(FlagLoss, 0)
	}
	if len(inj.Events()) != maxEvents {
		t.Errorf("event log holds %d entries, want cap %d", len(inj.Events()), maxEvents)
	}
	if inj.Stat("inject.flagloss") != int64(maxEvents+10) {
		t.Errorf("stat = %d, want %d", inj.Stat("inject.flagloss"), maxEvents+10)
	}
	sum := inj.Summary()
	for _, want := range []string{"inject.flagloss=4106\n", "events-dropped=10\n"} {
		if !contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	ev := inj.Events()[0]
	if ev.Kind != "inject.flagloss" || ev.Site != "scc.flag" || ev.Dev != 0 {
		t.Errorf("event = %v", ev)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// A framed packet's decision builds no string: each stream is keyed by
// (site, suffix, dev), so a decision at zero rates — the common case of
// a fault-armed run — allocates nothing, nor does a corruption pick on
// a warm stream.
func TestDecisionsAllocateNothing(t *testing.T) {
	inj := NewInjector(sim.NewKernel(), Config{Seed: 7})
	if n := testing.AllocsPerRun(100, func() { inj.PacketFault("pcie.h2d", 1) }); n != 0 {
		t.Errorf("PacketFault at zero rates: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { inj.Pick("pcie.h2d", 1, 16) }); n != 0 {
		t.Errorf("Pick: %v allocations, want 0", n)
	}
}
