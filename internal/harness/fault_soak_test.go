package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// The fault soak: a long seeded schedule of drops, duplicates, delays
// and lost flag writes over every inter-device scheme on the ablation
// topology, run once serially and once fanned out over 4 workers. The
// digest — per-point end cycle plus the injector's event totals — must
// be byte-identical across the two sweeps, the same contract the
// determinism gates hold for the fault-free sweeps. Ten thousand
// transfers in the full run, which `make check`'s race step and the CI
// build job play; `-short` is the 1x schedule.

// soakSpec is the seeded schedule every soak point runs under. The
// rates are low enough that every class still completes through
// recovery (drop -> retransmit, dup -> discard, flagloss -> rewrite)
// and high enough that each fires many times over the soak.
const soakSpec = "seed=42,drop=60,dup=30,delay=30:2500,flagloss=40"

// soakPoint is one cell of the soak grid: a scheme and a message size
// on the two-device ablation topology.
type soakPoint struct {
	scheme vscc.Scheme
	size   int
}

func soakGrid() []soakPoint {
	var grid []soakPoint
	for _, s := range []vscc.Scheme{vscc.SchemeHostRouted, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA} {
		for _, size := range []int{256, 1024, 4096} {
			grid = append(grid, soakPoint{s, size})
		}
	}
	return grid
}

// runSoakPoint plays reps cross-device ping-pong rounds (two transfers
// each) under the process-wide fault schedule and renders the point's
// digest: end cycle and injector totals.
func runSoakPoint(pt soakPoint, reps int) (string, error) {
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, sysConfig(vscc.Config{Devices: 2, Scheme: pt.scheme}))
	if err != nil {
		return "", err
	}
	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		return "", err
	}
	var bad error
	err = session.Run(func(r *rcce.Rank) {
		buf := make([]byte, pt.size)
		for rep := 0; rep < reps; rep++ {
			want := make([]byte, pt.size)
			for i := range want {
				want[i] = byte(i*5+rep) ^ 0xA7
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
				bad = fmt.Errorf("%s/%d rep %d: payload corrupted", pt.scheme.Key(), pt.size, rep)
			}
		}
	})
	if err != nil {
		return "", err
	}
	if bad != nil {
		return "", bad
	}
	return fmt.Sprintf("%s/%d end=%d\n%s", pt.scheme.Key(), pt.size, k.Now(), sys.Injector.Summary()), nil
}

// soakSweep runs the whole grid on the current worker pool, returning
// the digests in grid order.
func soakSweep(transfers int) ([]string, error) {
	grid := soakGrid()
	reps := transfers / (len(grid) * 2)
	if reps < 1 {
		reps = 1
	}
	return mapPoints(grid, func(pt soakPoint) (string, error) {
		return runSoakPoint(pt, reps)
	})
}

// TestFaultSoakSerialParallelIdentity is the fault-layer determinism
// gate: the soak digest must be byte-identical between a serial sweep
// and a 4-way parallel one, and every point must have seen at least one
// injected fault (a soak that never faults proves nothing).
func TestFaultSoakSerialParallelIdentity(t *testing.T) {
	transfers := 10_000
	if testing.Short() {
		transfers = 1_000
	}
	if err := SetFaultSpec(soakSpec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetFaultSpec(""); err != nil {
			t.Fatal(err)
		}
	}()

	var serial, parallel []string
	withParallelism(t, 1, func() {
		var err error
		serial, err = soakSweep(transfers)
		if err != nil {
			t.Fatalf("serial soak: %v", err)
		}
	})
	withParallelism(t, 4, func() {
		var err error
		parallel, err = soakSweep(transfers)
		if err != nil {
			t.Fatalf("parallel soak: %v", err)
		}
	})
	if strings.Join(serial, "") != strings.Join(parallel, "") {
		t.Errorf("parallel soak digest diverged from serial:\nserial:\n%s\nparallel:\n%s",
			strings.Join(serial, ""), strings.Join(parallel, ""))
	}
	for _, digest := range serial {
		if !strings.Contains(digest, "inject.") {
			t.Errorf("soak point saw no injected faults:\n%s", digest)
		}
	}
}
