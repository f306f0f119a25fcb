package harness

import (
	"strings"
	"testing"
)

// The device-crash soak: the packet-fault schedule of fault_soak_test.go
// plus a whole-device crash of device 1 mid-run, with transparent retry
// (devretry=1) so every point must complete through checkpoint restore,
// journal replay and epoch-stamped retransmission. Byte-identity to a
// fault-free run is enforced per transfer inside runSoakPoint: the
// expected payload is computed independently of the wire, so a single
// replayed byte out of place fails the point. On top of that the digest
// must be byte-identical between a serial sweep, a rerun, and a 4-way
// parallel sweep — crash recovery may not cost reproducibility.

// devSoakSpec crashes device 1 at cycle 200k (drain 50k, rejoin 200k
// later), under the same packet-fault rates as the plain soak.
const devSoakSpec = soakSpec + ",devcrash=200000:1,devretry=1"

// TestFaultSoakDeviceCrash is the crash-recovery determinism gate. Full
// runs — `make check`'s race step, CI's build job and the nightly soak
// job — play 10k transfers per sweep; `-short` is the 1x schedule.
func TestFaultSoakDeviceCrash(t *testing.T) {
	transfers := 10_000
	if testing.Short() {
		transfers = 1_000
	}
	if err := SetFaultSpec(devSoakSpec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetFaultSpec(""); err != nil {
			t.Fatal(err)
		}
	}()

	var serial, rerun, parallel []string
	withParallelism(t, 1, func() {
		var err error
		if serial, err = soakSweep(transfers); err != nil {
			t.Fatalf("serial soak: %v", err)
		}
		if rerun, err = soakSweep(transfers); err != nil {
			t.Fatalf("serial rerun: %v", err)
		}
	})
	withParallelism(t, 4, func() {
		var err error
		if parallel, err = soakSweep(transfers); err != nil {
			t.Fatalf("parallel soak: %v", err)
		}
	})
	if strings.Join(serial, "") != strings.Join(rerun, "") {
		t.Errorf("rerun digest diverged from first run:\nfirst:\n%s\nrerun:\n%s",
			strings.Join(serial, ""), strings.Join(rerun, ""))
	}
	if strings.Join(serial, "") != strings.Join(parallel, "") {
		t.Errorf("parallel soak digest diverged from serial:\nserial:\n%s\nparallel:\n%s",
			strings.Join(serial, ""), strings.Join(parallel, ""))
	}
	for _, digest := range serial {
		if !strings.Contains(digest, "inject.devcrash=1") {
			t.Errorf("soak point never crashed the device:\n%s", digest)
		}
		if !strings.Contains(digest, "recover.rejoin=1") {
			t.Errorf("soak point never rejoined the device:\n%s", digest)
		}
	}
}
