package scc_test

import (
	"strings"
	"testing"

	"vscc/internal/scc"
	"vscc/internal/sim"
)

// runChecked launches body on core 0 of a checker-enabled chip and
// returns the simulation error (which carries any checker panic).
func runChecked(t *testing.T, body func(chip *scc.Chip, c *scc.Ctx)) error {
	t.Helper()
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	chip.EnableConsistencyCheck(scc.NewChecker())
	chip.Launch(0, "prog", func(c *scc.Ctx) { body(chip, c) })
	return k.RunUntil(10_000_000)
}

func TestCheckerFlagsStaleCachedRead(t *testing.T) {
	err := runChecked(t, func(chip *scc.Chip, c *scc.Ctx) {
		buf := make([]byte, 1)
		c.ReadMPB(0, 1, 64, buf)            // cache tile 1's line in the L1
		chip.HostWriteLMB(1, 64, []byte{7}) // a peer store lands
		c.ReadMPB(0, 1, 64, buf)            // L1 hit serves the stale copy
	})
	if err == nil {
		t.Fatal("stale cached read was not flagged")
	}
	for _, want := range []string{"scc: mpb-check", "stale MPB line", "tile 1, off 64", "missing InvalidateMPB"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestCheckerFlagsReadOverPendingWCB(t *testing.T) {
	err := runChecked(t, func(chip *scc.Chip, c *scc.Ctx) {
		buf := make([]byte, 1)
		c.WriteMPB(0, 0, 64, []byte{1}) // combined store still in the WCB
		c.ReadMPB(0, 0, 64, buf)
	})
	if err == nil {
		t.Fatal("read over a pending WCB line was not flagged")
	}
	if !strings.Contains(err.Error(), "missing FlushWCB") {
		t.Errorf("error %q does not mention the missing flush", err)
	}
}

func TestCheckerPassesDisciplinedProtocol(t *testing.T) {
	err := runChecked(t, func(chip *scc.Chip, c *scc.Ctx) {
		buf := make([]byte, 1)
		// Invalidate-before-read clears the stale copy.
		c.ReadMPB(0, 1, 64, buf)
		chip.HostWriteLMB(1, 64, []byte{7})
		c.InvalidateMPB()
		c.ReadMPB(0, 1, 64, buf)
		if buf[0] != 7 {
			t.Errorf("read %d after invalidate, want 7", buf[0])
		}
		// A core's own flushed stores refresh its write-through L1 copy:
		// reading them back is not a staleness violation.
		c.ReadMPB(0, 0, 96, buf)
		c.WriteMPB(0, 0, 96, []byte{9})
		c.FlushWCB()
		c.ReadMPB(0, 0, 96, buf)
		if buf[0] != 9 {
			t.Errorf("read %d of own flushed store, want 9", buf[0])
		}
	})
	if err != nil {
		t.Fatalf("disciplined protocol flagged: %v", err)
	}
}

func TestCheckerDisabledByDefault(t *testing.T) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	chip.Launch(0, "prog", func(c *scc.Ctx) {
		buf := make([]byte, 1)
		c.ReadMPB(0, 1, 64, buf)
		chip.HostWriteLMB(1, 64, []byte{7})
		c.ReadMPB(0, 1, 64, buf) // stale on purpose: hardware behaviour
		if buf[0] != 0 {
			t.Errorf("expected the stale cached 0, got %d", buf[0])
		}
	})
	if err := k.RunUntil(10_000_000); err != nil {
		t.Fatalf("unchecked chip must serve stale lines silently: %v", err)
	}
}
