package vscc

// Serial-vs-PDES byte-identity gates (ISSUE PR-6, acceptance bar). The
// PDES engine's determinism claim is that the worker count is
// unobservable: a run with W workers produces byte-identical traces,
// recovery ledgers, checkpoint state and final clocks to the same run
// with 1 worker (the serial reference). The table below pins that
// across all five inter-device schemes, with and without a scheduled
// device crash.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// pdesFingerprint is everything a PDES run can externalize: the Chrome
// trace export and metrics reports of every kernel's sink (counters
// include the fault/recovery ledger), each kernel's final clock and
// event count, every device's LMB image, and the checkpoint-log
// statistics.
type pdesFingerprint struct {
	chrome  string
	reports string
	clocks  string
	lmbHash string
	ckpt    string
}

func (f pdesFingerprint) diff(t *testing.T, g pdesFingerprint) {
	t.Helper()
	if f.chrome != g.chrome {
		t.Errorf("chrome trace differs (%d vs %d bytes)", len(f.chrome), len(g.chrome))
	}
	if f.reports != g.reports {
		t.Errorf("metrics reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", f.reports, g.reports)
	}
	if f.clocks != g.clocks {
		t.Errorf("final clocks differ: %q vs %q", f.clocks, g.clocks)
	}
	if f.lmbHash != g.lmbHash {
		t.Errorf("LMB images differ: %s vs %s", f.lmbHash, g.lmbHash)
	}
	if f.ckpt != g.ckpt {
		t.Errorf("checkpoint stats differ: %q vs %q", f.ckpt, g.ckpt)
	}
}

// devCrashSpec is the fault schedule of the faulted table rows: device
// 1 crashes mid-workload and rejoins before the workload ends.
func devCrashSpec() *fault.Config {
	return &fault.Config{
		Seed:         1,
		DevCrashAt:   []fault.DeviceFault{{At: 400_000, Dev: 1, Down: 500_000}},
		CkptInterval: 200_000,
	}
}

// runPDESWorkload drives a mixed cross-device workload (two
// cross-device pairs plus one on-chip pair, mixed message sizes
// straddling the direct-path threshold and the chunking boundary) on
// the decomposed engine and returns its fingerprint.
func runPDESWorkload(t *testing.T, scheme Scheme, faults *fault.Config, workers int) pdesFingerprint {
	t.Helper()
	sys, err := NewPDESSystem(Config{Devices: 2, Scheme: scheme, Faults: faults}, workers)
	if err != nil {
		t.Fatal(err)
	}
	var col trace.Collector
	sinks := make([]*trace.Sink, 3)
	for i := 0; i < 2; i++ {
		sinks[i] = col.New(fmt.Sprintf("k%d", i), sys.PDES.Kernel(i))
	}
	sinks[2] = col.New("khost", sys.PDES.Kernel(2))
	sys.Instrument(sinks)

	places := []rcce.Place{
		{Dev: 0, Core: 0}, {Dev: 0, Core: 1}, // ranks 0, 1
		{Dev: 1, Core: 0}, {Dev: 1, Core: 1}, // ranks 2, 3
	}
	session, err := sys.NewSessionAt(places)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 32, 100, 4096, 9000}
	rounds := 3
	if faults != nil {
		rounds = 8 // long enough to straddle the outage window
	}
	err = session.Run(func(r *rcce.Rank) {
		peer := map[int]int{0: 2, 2: 0, 1: 3, 3: 1}[r.ID()]
		for rep := 0; rep < rounds; rep++ {
			for _, n := range sizes {
				msg := pattern(n, byte(rep)+byte(r.ID()))
				got := make([]byte, n)
				if r.ID() < 2 { // device 0 sends first
					if err := r.Send(peer, msg); err != nil {
						panic(err)
					}
					if err := r.Recv(peer, got); err != nil {
						panic(err)
					}
				} else {
					if err := r.Recv(peer, got); err != nil {
						panic(err)
					}
					if err := r.Send(peer, msg); err != nil {
						panic(err)
					}
				}
				want := pattern(n, byte(rep)+byte(peer))
				if !bytes.Equal(got, want) {
					panic(fmt.Sprintf("rank %d rep %d size %d corrupted", r.ID(), rep, n))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	caps := col.Captures()
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, caps); err != nil {
		t.Fatal(err)
	}
	var clocks bytes.Buffer
	for i := 0; i < sys.PDES.N(); i++ {
		k := sys.PDES.Kernel(i)
		fmt.Fprintf(&clocks, "k%d: now=%d events=%d\n", i, k.Now(), k.Events())
	}
	fmt.Fprintf(&clocks, "windows=%d\n", sys.PDES.Windows())
	h := sha256.New()
	for _, chip := range sys.Chips {
		for _, bank := range chip.ViewLMB(nil) {
			h.Write(bank)
		}
	}
	var ck bytes.Buffer
	for d, pt := range sys.ports {
		if pt.log == nil {
			continue
		}
		n, bytes := pt.log.Checkpoints()
		w, wb := pt.log.TailLen()
		fmt.Fprintf(&ck, "d%d: ckpts=%d bytes=%d tail=%d/%d epoch=%d state=%v\n", d, n, bytes, w, wb, pt.epoch, pt.state)
	}
	return pdesFingerprint{
		chrome:  chrome.String(),
		reports: trace.Report(caps),
		clocks:  clocks.String(),
		lmbHash: hex.EncodeToString(h.Sum(nil)),
		ckpt:    ck.String(),
	}
}

// TestPDESSerialParallelIdentity is the identity table: every scheme,
// with and without a device crash, must be worker-count-invariant.
func TestPDESSerialParallelIdentity(t *testing.T) {
	for _, scheme := range allSchemes {
		scheme := scheme
		for _, faulted := range []bool{false, true} {
			faulted := faulted
			name := scheme.String()
			if faulted {
				name += "/devcrash"
			}
			t.Run(name, func(t *testing.T) {
				spec := func() *fault.Config {
					if faulted {
						return devCrashSpec()
					}
					return nil
				}
				serial := runPDESWorkload(t, scheme, spec(), 1)
				for _, workers := range []int{2, 4} {
					parallel := runPDESWorkload(t, scheme, spec(), workers)
					serial.diff(t, parallel)
				}
				if faulted {
					// The ledger must show the full crash lifecycle.
					for _, want := range []string{
						"fault.inject.devcrash", "epoch.advance",
						"replay.writes", "fault.recover.rejoin",
					} {
						if !bytes.Contains([]byte(serial.reports), []byte(want)) {
							t.Errorf("recovery ledger missing %q", want)
						}
					}
				}
			})
		}
	}
}

// TestPDESRerunIdentity pins run-to-run determinism of the parallel
// engine itself (same workers, two runs, same bytes).
func TestPDESRerunIdentity(t *testing.T) {
	a := runPDESWorkload(t, SchemeVDMA, devCrashSpec(), 4)
	b := runPDESWorkload(t, SchemeVDMA, devCrashSpec(), 4)
	a.diff(t, b)
}

// TestPDESTracesItsLinks checks that every PCIe link records on its
// owner's sink — device d's D2H bytes on sinks[d], its H2D bytes on the
// host kernel's — under the same names as a classic trace, and that the
// counts do not depend on the worker count.
func TestPDESTracesItsLinks(t *testing.T) {
	linkBytes := func(workers int) []int64 {
		sys, err := NewPDESSystem(Config{Devices: 2, Scheme: SchemeVDMA}, workers)
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]*trace.Sink, 3)
		for i := range sinks {
			sinks[i] = trace.NewSink(sys.PDES.Kernel(i))
		}
		sys.Instrument(sinks)
		session, err := sys.NewSessionAt(pinPlaces)
		if err != nil {
			t.Fatal(err)
		}
		pingPong(t, session, 4096)
		host := sinks[2]
		var got []int64
		for d := 0; d < 2; d++ {
			up := fmt.Sprintf("noc.pcie.d%d.d2h.bytes", d)
			down := fmt.Sprintf("noc.pcie.d%d.h2d.bytes", d)
			if sinks[d].CounterValue(up) == 0 || host.CounterValue(down) == 0 {
				t.Errorf("%d workers: %s = %d on device %d's sink, %s = %d on the host's; want both > 0",
					workers, up, sinks[d].CounterValue(up), d, down, host.CounterValue(down))
			}
			if host.CounterValue(up) != 0 || sinks[d].CounterValue(down) != 0 {
				t.Errorf("%d workers: device %d's links record on the wrong kernel's sink", workers, d)
			}
			got = append(got, sinks[d].CounterValue(up), host.CounterValue(down))
		}
		return got
	}
	if one, two := linkBytes(1), linkBytes(2); !slices.Equal(one, two) {
		t.Errorf("link bytes with 1 worker %v, with 2 workers %v", one, two)
	}
}

// TestPDESResultMatchesClassic cross-checks payload integrity against
// the classic single-kernel engine: timing differs by design (the PDES
// fabric is not the framed fabric), data must not.
func TestPDESResultMatchesClassic(t *testing.T) {
	const size = 7000
	msg := pattern(size, byte(size%256))
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			got, _ := crossPair(t, scheme, size, 2) // classic reference
			if !bytes.Equal(got, msg) {
				t.Fatal("classic engine corrupted data")
			}
			sys, err := NewPDESSystem(Config{Devices: 2, Scheme: scheme}, 2)
			if err != nil {
				t.Fatal(err)
			}
			session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
			if err != nil {
				t.Fatal(err)
			}
			pgot := make([]byte, size)
			err = session.Run(func(r *rcce.Rank) {
				for i := 0; i < 2; i++ {
					if r.ID() == 0 {
						if err := r.Send(1, msg); err != nil {
							panic(err)
						}
					} else if err := r.Recv(0, pgot); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pgot, got) {
				t.Fatal("pdes engine delivered different bytes than the classic engine")
			}
		})
	}
}

// TestPDESRejectsUnsupportedConfigs pins the constructor's validation
// surface: cross-device oracles and packet-level faults cannot exist
// under domain decomposition.
func TestPDESRejectsUnsupportedConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"checker", Config{Devices: 2, Check: true}},
		{"packet-faults", Config{Devices: 2, Faults: &fault.Config{DropPer10k: 5}}},
		{"flag-faults", Config{Devices: 2, Faults: &fault.Config{FlagLossPer10k: 5}}},
		{"host-crash", Config{Devices: 2, Faults: &fault.Config{CrashAt: []sim.Cycles{100}}}},
		{"link-down", Config{Devices: 2, Faults: &fault.Config{DevLinkDownAt: []fault.DeviceFault{{At: 1, Dev: 0}}}}},
		{"hwaccel-3dev", Config{Devices: 3, Scheme: SchemeHWAccel}},
		{"no-devices", Config{Devices: 0}},
	}
	for _, tc := range cases {
		if _, err := NewPDESSystem(tc.cfg, 1); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
	// The supported subset must pass.
	if _, err := NewPDESSystem(Config{Devices: 2, Faults: devCrashSpec()}, 1); err != nil {
		t.Errorf("device-crash config rejected: %v", err)
	}
}
