package host_test

import (
	"bytes"
	"fmt"
	"testing"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// recyclePingPong runs two round trips of a size-byte message between
// ranks on devices 0 and 1 and returns rank 0's clock at the end and the
// fault injector. Every message either rank receives must equal the one
// sent. poison makes the host fill every record it frees with 0xA5.
func recyclePingPong(t *testing.T, scheme vscc.Scheme, size int, spec string, poison bool) (sim.Cycles, *fault.Injector) {
	t.Helper()
	faults, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vscc.NewSystem(sim.NewKernel(), vscc.Config{Devices: 2, Scheme: scheme, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if poison {
		sys.Task.PoisonFreedRecords()
	}
	session, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i*7 + 1)
	}
	var end sim.Cycles
	err = session.Run(func(r *rcce.Rank) {
		got := make([]byte, size)
		peer := 1 - r.ID()
		for i := 0; i < 2; i++ {
			if r.ID() == 0 {
				r.Send(peer, msg)
			}
			clear(got)
			r.Recv(peer, got)
			if !bytes.Equal(got, msg) {
				t.Errorf("round %d: rank %d received a corrupted %d-byte message", i, r.ID(), size)
			}
			if r.ID() == 1 {
				r.Send(peer, msg)
			}
		}
		if r.ID() == 0 {
			end = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return end, sys.Injector
}

// A landing record is reused only after its transfer's last landing:
// with every freed record overwritten by 0xA5, each scheme still
// delivers every message intact, at the very cycle it does without.
func TestRecycledRecordsCarryNoLiveData(t *testing.T) {
	type point struct {
		scheme   vscc.Scheme
		size     int
		spec     string
		injected []string // fault kinds the point must see
	}
	var points []point
	for _, s := range []vscc.Scheme{vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeHWAccel,
		vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA} {
		for _, size := range []int{32, 4096, 20000} {
			points = append(points, point{s, size, "", nil})
		}
	}
	points = append(points,
		point{vscc.SchemeVDMA, 20000, "seed=1,devcrash=400000:1:500000,ckpt=200000,devretry=1", []string{"inject.devcrash"}},
		point{vscc.SchemeRemotePut, 20000, "seed=3,drop=300,dup=300", []string{"inject.drop", "inject.dup"}})
	for _, pt := range points {
		t.Run(fmt.Sprintf("%s/%d/%s", pt.scheme.Key(), pt.size, pt.spec), func(t *testing.T) {
			want, inj := recyclePingPong(t, pt.scheme, pt.size, pt.spec, false)
			for _, kind := range pt.injected {
				if inj.Stat(kind) == 0 {
					t.Errorf("no %s injected", kind)
				}
			}
			got, _ := recyclePingPong(t, pt.scheme, pt.size, pt.spec, true)
			if got != want {
				t.Errorf("poisoned free list: run ends at cycle %d, want %d", got, want)
			}
		})
	}
}
