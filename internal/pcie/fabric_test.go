package pcie

import (
	"strings"
	"testing"

	"vscc/internal/sim"
)

func TestFabricCreation(t *testing.T) {
	f, err := New(5, DefaultParams(), AckHost)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumDevices() != 5 {
		t.Errorf("devices = %d, want 5", f.NumDevices())
	}
	for d := 0; d < 5; d++ {
		l := f.Link(d)
		if l.D2H == nil || l.H2D == nil {
			t.Fatalf("device %d missing link pair", d)
		}
	}
}

func TestFPGAFastAckStabilityRule(t *testing.T) {
	// Paper §2.3: fast write acknowledges prevent a tight coupling of
	// more than two SCC devices.
	if _, err := New(2, DefaultParams(), AckFPGA); err != nil {
		t.Errorf("2-device FPGA fast-ack should be allowed: %v", err)
	}
	if _, err := New(3, DefaultParams(), AckFPGA); err == nil {
		t.Error("3-device FPGA fast-ack should be rejected")
	}
	if _, err := New(5, DefaultParams(), AckFPGA); err == nil {
		t.Error("5-device FPGA fast-ack should be rejected")
	}
	// The other ack modes have no device limit.
	if _, err := New(5, DefaultParams(), AckHost); err != nil {
		t.Error(err)
	}
	if _, err := New(5, DefaultParams(), AckRemote); err != nil {
		t.Error(err)
	}
}

func TestZeroDevicesRejected(t *testing.T) {
	if _, err := New(0, DefaultParams(), AckHost); err == nil {
		t.Error("zero-device fabric should be rejected")
	}
}

func TestRoundTripLatencyFactor(t *testing.T) {
	// Paper §5: tunneling the on-chip protocol through the host raises
	// latencies by a factor of ~120 over the ~100-cycle on-chip path.
	f, err := New(5, DefaultParams(), AckHost)
	if err != nil {
		t.Fatal(err)
	}
	rt := f.RoundTrip()
	if rt < 8_000 || rt > 20_000 {
		t.Errorf("inter-device round trip = %d cycles, want ~1.2e4 (paper §3: ~10^4)", rt)
	}
	const onChip = 100
	factor := float64(rt) / onChip
	if factor < 80 || factor > 160 {
		t.Errorf("latency factor = %.0f, want ~120", factor)
	}
}

func TestLinkBandwidthClass(t *testing.T) {
	// The link must be slow enough that on-chip (150 MB/s) clearly wins
	// and fast enough that tens of MB/s are reachable inter-device.
	f, _ := New(1, DefaultParams(), AckHost)
	k := sim.NewKernel()
	var elapsed sim.Cycles
	k.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		f.Link(0).D2H.Transfer(p, 1<<20) // 1 MB bulk
		elapsed = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mbs := float64(1<<20) / 1e6 / (float64(elapsed) / 533e6)
	if mbs < 30 || mbs > 90 {
		t.Errorf("raw link bandwidth = %.1f MB/s, want 30-90", mbs)
	}
}

func TestAckModeString(t *testing.T) {
	for m, want := range map[AckMode]string{AckHost: "host", AckFPGA: "fpga", AckRemote: "remote"} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("AckMode(%d).String() = %q, want containing %q", m, m.String(), want)
		}
	}
}
