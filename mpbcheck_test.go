package vscc_test

import (
	"regexp"
	"strings"
	"testing"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// These tests drive the runtime MPB consistency checker (Config.Check,
// the -check flag of cmd/pingpong and cmd/ablate) through a full vSCC
// system. The broken receiver waits for the sent flag with PeekSent —
// which, unlike WaitFlag, does not invalidate the MPBT L1 — and then
// reads the payload without the InvalidateMPB the gory discipline
// requires (paper §3.1). The checker must attribute the stale read to
// the exact rank and cycle; the repaired receiver must run clean and
// deliver the payload.

const stalePayloadOff = 64 // a payload line inside [0, PayloadBytes)

// brokenReceiver warms its L1 on the sender's payload line, peeks for
// the sent flag, and reads the payload back without invalidating. The
// goryorder analyzer flags the final read statically; the suppression
// keeps the tree lint-clean so the runtime checker can demonstrate
// catching the same bug dynamically.
func brokenReceiver(r *rcce.Rank, buf []byte) byte {
	ctx := r.Ctx()
	dev0, tile0, base0 := r.MPBOf(0)
	ctx.ReadMPB(dev0, tile0, base0+stalePayloadOff, buf) // warm the L1
	r.SignalReady(0)
	for !r.PeekSent(0) {
		r.WaitAnyLocalChangeFor(0)
	}
	r.ClearSent(0)
	//lint:ignore goryorder deliberate stale read: the runtime checker must catch it
	ctx.ReadMPB(dev0, tile0, base0+stalePayloadOff, buf)
	return buf[0]
}

// soundReceiver is the same protocol with the missing InvalidateMPB
// restored.
func soundReceiver(r *rcce.Rank, buf []byte) byte {
	ctx := r.Ctx()
	dev0, tile0, base0 := r.MPBOf(0)
	ctx.ReadMPB(dev0, tile0, base0+stalePayloadOff, buf) // warm the L1
	r.SignalReady(0)
	for !r.PeekSent(0) {
		r.WaitAnyLocalChangeFor(0)
	}
	r.ClearSent(0)
	ctx.InvalidateMPB()
	ctx.ReadMPB(dev0, tile0, base0+stalePayloadOff, buf)
	return buf[0]
}

// runMPBCheckScenario plays a two-rank flag/payload exchange with the
// checker enabled. invalidate selects the disciplined receiver.
func runMPBCheckScenario(invalidate bool) (got byte, err error) {
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 1, Check: true})
	if err != nil {
		return 0, err
	}
	session, err := sys.NewSession(2)
	if err != nil {
		return 0, err
	}
	err = session.Run(func(r *rcce.Rank) {
		ctx := r.Ctx()
		dev0, tile0, base0 := r.MPBOf(0)
		switch r.ID() {
		case 0:
			r.AwaitReadyFor(1, 0)
			ctx.WriteMPB(dev0, tile0, base0+stalePayloadOff, []byte{42})
			ctx.FlushWCB()
			r.SignalSent(1)
		case 1:
			buf := make([]byte, 1)
			if invalidate {
				got = soundReceiver(r, buf)
			} else {
				got = brokenReceiver(r, buf)
			}
		}
	})
	return got, err
}

func TestMPBCheckCatchesSkippedInvalidate(t *testing.T) {
	_, err := runMPBCheckScenario(false)
	if err == nil {
		t.Fatal("skipping InvalidateMPB after a peek wait was not caught")
	}
	msg := err.Error()
	for _, want := range []string{
		"rcce: rank 1 panicked",
		"scc: mpb-check",
		"stale MPB line",
		"missing InvalidateMPB after the flag wait",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not mention %q:\n%s", want, msg)
		}
	}
	m := regexp.MustCompile(`at cycle (\d+)`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("error does not report the cycle:\n%s", msg)
	}
	// The simulation is deterministic: a rerun must report the violation
	// at the identical rank, line and cycle.
	_, err2 := runMPBCheckScenario(false)
	if err2 == nil || err2.Error() != msg {
		t.Errorf("rerun reported a different violation:\nfirst: %s\nrerun: %v", msg, err2)
	}
}

func TestMPBCheckPassesDisciplinedProtocol(t *testing.T) {
	got, err := runMPBCheckScenario(true)
	if err != nil {
		t.Fatalf("disciplined protocol flagged: %v", err)
	}
	if got != 42 {
		t.Errorf("receiver read %d, want 42", got)
	}
}
