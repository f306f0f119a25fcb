package rcce

import (
	"testing"

	"vscc/internal/scc"
	"vscc/internal/sim"
)

func TestPowerDomainAndFrequency(t *testing.T) {
	s := newSession(t, 4)
	err := s.Run(func(r *Rank) {
		if r.FrequencyMHz() != 533 {
			t.Errorf("rank %d at %d MHz, want 533", r.ID(), r.FrequencyMHz())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetFrequencyDividerSlowsRank(t *testing.T) {
	s := newSession(t, 2)
	var fast, slow sim.Cycles
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			t0 := r.Now()
			r.ComputeFlops(300_000)
			fast = r.Now() - t0
			return
		}
		// Rank 1 shares tile 0 with rank 0 in this session... use a
		// divider its island supports.
		if err := r.SetFrequencyDivider(6); err != nil {
			t.Error(err)
			return
		}
		t0 := r.Now()
		r.ComputeFlops(300_000)
		slow = r.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0 and 1 share tile 0 — the divider applies per tile, so rank
	// 0 may also be affected depending on ordering; assert only the
	// slowed rank's cost doubled relative to the nominal rate.
	nominal := sim.Cycles(300_000)
	if fast < nominal {
		t.Errorf("fast compute = %d, below nominal %d", fast, nominal)
	}
	if slow != 2*nominal {
		t.Errorf("divider-6 compute = %d, want %d", slow, 2*nominal)
	}
}

func TestISetPowerRaisesVoltageThenFrequency(t *testing.T) {
	s := newSession(t, 1)
	err := s.Run(func(r *Rank) {
		t0 := r.Now()
		req, err := r.iSetPower(2) // 800 MHz needs 1.1 V: slow transition
		if err != nil {
			t.Error(err)
			return
		}
		// iSetPower returns immediately.
		if r.Now()-t0 > 1000 {
			t.Errorf("iSetPower blocked for %d cycles", r.Now()-t0)
		}
		if err := r.waitPower(req); err != nil {
			t.Error(err)
			return
		}
		if r.Now()-t0 < scc.VoltageChangeCycles {
			t.Errorf("power change completed in %d cycles, want >= %d", r.Now()-t0, scc.VoltageChangeCycles)
		}
		if r.FrequencyMHz() != 800 {
			t.Errorf("frequency = %d MHz, want 800", r.FrequencyMHz())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetPowerDownAndUp(t *testing.T) {
	s := newSession(t, 1)
	err := s.Run(func(r *Rank) {
		if err := setPower(r, 8); err != nil { // 200 MHz
			t.Error(err)
		}
		if r.FrequencyMHz() != 200 {
			t.Errorf("frequency = %d, want 200", r.FrequencyMHz())
		}
		if err := setPower(r, 3); err != nil { // back to 533: needs 0.9 V again
			t.Error(err)
		}
		if r.FrequencyMHz() != 533 {
			t.Errorf("frequency = %d, want 533", r.FrequencyMHz())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestISetPowerBadDivider(t *testing.T) {
	s := newSession(t, 1)
	err := s.Run(func(r *Rank) {
		if _, err := r.iSetPower(1); err == nil {
			t.Error("divider 1 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommunicationUnaffectedByPeerFrequency(t *testing.T) {
	// A slowed receiver still receives correct data (the mesh and MPB
	// run on their own clocks); only its compute slows.
	s := newSession(t, 4)
	msg := pattern(4096, 3)
	got := make([]byte, len(msg))
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 2: // tile 1: slow it down without affecting rank 0/1 flags
			if err := setPower(r, 8); err != nil {
				t.Error(err)
			}
			r.Barrier()
			r.Recv(0, got)
		case 0:
			r.Barrier()
			r.Send(2, msg)
		default:
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatal("payload corrupted under frequency scaling")
		}
	}
}

// setPower moves r's tile to divider and waits for the change.
func setPower(r *Rank, divider int) error {
	req, err := r.iSetPower(divider)
	if err != nil {
		return err
	}
	return r.waitPower(req)
}
