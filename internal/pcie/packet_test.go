package pcie

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/sim"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Seq: 0x1122334455667788, Length: 4096, Kind: 3}
	b := EncodeHeader(h)
	got, err := DecodeHeader(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decode = %+v, want %+v", got, h)
	}
}

func TestHeaderRejectsDamage(t *testing.T) {
	b := EncodeHeader(Header{Seq: 7, Length: 64})
	for i := 0; i < HeaderBytes; i++ {
		dam := b
		dam[i] ^= 0x10
		if _, err := DecodeHeader(dam[:]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("flip of byte %d not rejected (err=%v)", i, err)
		}
	}
	if _, err := DecodeHeader(b[:HeaderBytes-1]); !errors.Is(err, ErrBadFrame) {
		t.Error("short frame not rejected")
	}
}

// postN drives n posted packets through device 0's H2D channel of a
// faulty fabric and returns the delivery order plus the run error.
func postN(t *testing.T, cfg fault.Config, n int) (order []int, backlog int, err error) {
	t.Helper()
	k := sim.NewKernel()
	f, ferr := New(1, DefaultParams(), AckHost)
	if ferr != nil {
		t.Fatal(ferr)
	}
	inj := fault.NewInjector(k, cfg)
	f.SetFaults(k, inj)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			f.PostH2D(p, 0, 256, func() { order = append(order, i) })
			p.Delay(50)
		}
	})
	err = k.Run()
	return order, len(f.chans[0].h2d.outstanding), err
}

// Under heavy drop/dup/delay/corrupt pressure every packet must still be
// delivered exactly once, in order, with an empty backlog at the end.
func TestChannelExactlyOnceInOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  fault.Config
	}{
		{"drop", fault.Config{Seed: 1, DropPer10k: 3000, Recovery: fault.Recovery{RetxTimeout: 8000}}},
		{"dup", fault.Config{Seed: 2, DupPer10k: 5000}},
		{"delay", fault.Config{Seed: 3, DelayPer10k: 5000, DelayCycles: 30_000}},
		{"corrupt", fault.Config{Seed: 4, CorruptPer10k: 3000, Recovery: fault.Recovery{RetxTimeout: 8000}}},
		{"storm", fault.Config{Seed: 5, DropPer10k: 1500, DupPer10k: 1500, DelayPer10k: 1500, CorruptPer10k: 1500, DelayCycles: 25_000, Recovery: fault.Recovery{RetxTimeout: 8000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 300
			order, backlog, err := postN(t, tc.cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != n {
				t.Fatalf("delivered %d packets, want %d", len(order), n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("delivery %d carried packet %d (out of order)", i, got)
				}
			}
			if backlog != 0 {
				t.Errorf("backlog %d after drain, want 0", backlog)
			}
		})
	}
}

// The channel under a zero-rate injector must behave like the bare link:
// same delivery cycles, in order.
func TestChannelZeroRatesMatchBareLink(t *testing.T) {
	deliveries := func(armed bool) []sim.Cycles {
		k := sim.NewKernel()
		f, err := New(1, DefaultParams(), AckHost)
		if err != nil {
			t.Fatal(err)
		}
		if armed {
			f.SetFaults(k, fault.NewInjector(k, fault.Config{}))
		}
		var at []sim.Cycles
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				f.PostH2D(p, 0, 512, func() { at = append(at, k.Now()) })
				p.Delay(100)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	bare, armed := deliveries(false), deliveries(true)
	if len(bare) != len(armed) {
		t.Fatalf("bare delivered %d, armed %d", len(bare), len(armed))
	}
	for i := range bare {
		if bare[i] != armed[i] {
			t.Errorf("delivery %d: bare at %d, armed at %d", i, bare[i], armed[i])
		}
	}
}

// Retransmission gives up after MaxRetx attempts with a deterministic,
// reproducible error.
func TestChannelRetxExhaustion(t *testing.T) {
	cfg := fault.Config{Seed: 9, DropPer10k: 10_000, Recovery: fault.Recovery{RetxTimeout: 1000, MaxRetx: 3}}
	run := func() string {
		_, _, err := postN(t, cfg, 1)
		if err == nil {
			t.Fatal("all-drop channel completed")
		}
		return err.Error()
	}
	msg := run()
	for _, want := range []string{"pcie: pcie.h2d dev 0 seq 1 lost after 4 attempts", "pcie.retx-fail"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	if again := run(); again != msg {
		t.Errorf("rerun produced a different error:\nfirst: %s\nrerun: %s", msg, again)
	}
}

// Recovery events must be reproducible cycle-for-cycle across reruns.
func TestChannelRecoveryCyclesReproduce(t *testing.T) {
	cfg := fault.Config{Seed: 11, DropPer10k: 2000, CorruptPer10k: 1000, Recovery: fault.Recovery{RetxTimeout: 6000}}
	trace := func() []fault.Event {
		k := sim.NewKernel()
		f, err := New(1, DefaultParams(), AckHost)
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(k, cfg)
		f.SetFaults(k, inj)
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				f.PostD2H(p, 0, 128, nil)
				p.Delay(40)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return inj.Events()
	}
	a, b := fmt.Sprint(trace()), fmt.Sprint(trace())
	if a == "[]" {
		t.Fatal("no fault events recorded")
	}
	if a != b {
		t.Errorf("event logs differ between reruns:\n%s\n--\n%s", a, b)
	}
}
