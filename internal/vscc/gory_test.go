package vscc

import (
	"bytes"
	"testing"

	"vscc/internal/rcce"
)

func TestVirtualAddressGoryAcrossDevices(t *testing.T) {
	// The §2.1 HAL extension end to end: a rank on device 0 one-sided
	// writes into a device-1 rank's MPB through the remote LUT window,
	// signals with a flag, and the owner reads it locally.
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(256, 9)
	got := make([]byte, len(msg))
	err = session.Run(func(r *rcce.Rank) {
		switch r.ID() {
		case 0:
			a, err := r.VAddrOf(48, 512)
			if err != nil {
				panic(err)
			}
			if err := r.PutV(a, msg); err != nil {
				panic(err)
			}
			r.SignalSent(48)
			r.AwaitReadyFor(48, 0)
		case 48:
			r.AwaitSentFor(0, 0)
			a, err := r.VAddrOf(48, 512) // own MPB through the window
			if err != nil {
				panic(err)
			}
			if err := r.GetV(a, got); err != nil {
				panic(err)
			}
			r.SignalReady(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("virtual-address gory transfer corrupted data")
	}
}

func TestVAddrValidation(t *testing.T) {
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSession(96)
	if err != nil {
		t.Fatal(err)
	}
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() != 0 {
			return
		}
		if _, err := r.VAddrOf(1, -1); err == nil {
			t.Error("negative offset accepted")
		}
		if _, err := r.VAddrOf(1, rcce.PayloadBytes); err == nil {
			t.Error("offset beyond payload accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
