package scc

import (
	"testing"

	"vscc/internal/sim"
)

func TestDefaultPowerConfiguration(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	for tile := 0; tile < NumTiles; tile++ {
		if f := c.TileFrequencyMHz(tile); f != 533 {
			t.Fatalf("tile %d at %d MHz, want 533 (paper's configuration)", tile, f)
		}
	}
	if w := c.TilePowerWatts(0); w != TileDynamicWattsNominal+TileLeakageWattsNominal {
		t.Errorf("nominal tile power = %v W, want %v", w, TileDynamicWattsNominal+TileLeakageWattsNominal)
	}
}

func TestFrequencyScalingSlowsCompute(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	var fast, slow sim.Cycles
	c.Launch(0, "fast", func(ctx *Ctx) {
		t0 := ctx.Now()
		ctx.ComputeFlops(100_000)
		fast = ctx.Now() - t0
	})
	if err := c.SetTileDivider(10, 6); err != nil { // tile 10 = core 20/21, 266 MHz
		t.Fatal(err)
	}
	c.Launch(20, "slow", func(ctx *Ctx) {
		t0 := ctx.Now()
		ctx.ComputeFlops(100_000)
		slow = ctx.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if slow != fast*2 {
		t.Errorf("divider 6 compute = %d cycles, want 2x the divider-3 cost (%d)", slow, fast)
	}
}

func TestDividerNeedsVoltage(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	// 800 MHz (divider 2) needs 1.1 V; the supply stays at 0.9 V.
	if err := c.SetTileDivider(0, 2); err == nil {
		t.Fatal("divider 2 at 0.9 V should be rejected")
	}
	if err := c.SetTileDivider(0, MinDivider); err != nil {
		t.Errorf("divider %d at 0.9 V rejected: %v", MinDivider, err)
	}
	if c.TileFrequencyMHz(0) != 533 {
		t.Errorf("tile 0 at %d MHz, want 533", c.TileFrequencyMHz(0))
	}
}

func TestBadDividerRejected(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	if err := c.SetTileDivider(0, 1); err == nil {
		t.Error("divider 1 accepted")
	}
	if err := c.SetTileDivider(0, 17); err == nil {
		t.Error("divider 17 accepted")
	}
}

func TestEnergyIntegration(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	// One simulated second at nominal settings: per-tile energy must be
	// dynamic + leakage watts, chip total 24x that.
	oneSecond := sim.Cycles(533_000_000)
	k.Spawn("clock", func(p *sim.Proc) { p.Delay(oneSecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	perTile := c.TileEnergyJoules(0, oneSecond)
	want := TileDynamicWattsNominal + TileLeakageWattsNominal
	if perTile < want*0.999 || perTile > want*1.001 {
		t.Errorf("per-tile energy = %.3f J, want %.3f", perTile, want)
	}
	total := 0.0
	for tile := 0; tile < NumTiles; tile++ {
		total += c.TileEnergyJoules(tile, oneSecond)
	}
	if total < 24*want*0.999 || total > 24*want*1.001 {
		t.Errorf("chip energy = %.3f J, want %.3f", total, 24*want)
	}
}

func TestFrequencyScalingSavesEnergy(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	oneSecond := sim.Cycles(533_000_000)
	// Halve tile 0's clock immediately; after one second it must have
	// burned only (dyn/2 + leak).
	if err := c.SetTileDivider(0, 6); err != nil {
		t.Fatal(err)
	}
	k.Spawn("clock", func(p *sim.Proc) { p.Delay(oneSecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.TileEnergyJoules(0, oneSecond)
	// Integer MHz: 1600/6 = 266 against the 533 nominal.
	want := TileDynamicWattsNominal*(266.0/533.0) + TileLeakageWattsNominal
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("half-clock tile energy = %.3f J, want %.3f", got, want)
	}
	// An untouched tile burns the nominal energy.
	full := c.TileEnergyJoules(5, oneSecond)
	if full <= got {
		t.Errorf("nominal tile (%.3f J) should exceed the scaled tile (%.3f J)", full, got)
	}
}
