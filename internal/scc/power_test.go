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
	for isl := 0; isl < VoltageIslands; isl++ {
		if v := c.IslandVoltage(isl); v != Voltage0V9 {
			t.Fatalf("island %d at %d mV, want 900", isl, v)
		}
	}
}

func TestVoltageIslandMapping(t *testing.T) {
	if TilesPerVoltageIsland != 4 {
		t.Fatalf("tiles per island = %d, want 4", TilesPerVoltageIsland)
	}
	if VoltageIslandOf(0) != 0 || VoltageIslandOf(3) != 0 || VoltageIslandOf(4) != 1 || VoltageIslandOf(23) != 5 {
		t.Error("island mapping wrong")
	}
}

func TestMinVoltageMonotone(t *testing.T) {
	prev := Voltage1V1
	for d := MinDivider; d <= MaxDivider; d++ {
		v := MinVoltageFor(d)
		if v > prev {
			t.Errorf("MinVoltageFor(%d)=%d rises above MinVoltageFor(%d)=%d", d, v, d-1, prev)
		}
		prev = v
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
	// 800 MHz (divider 2) needs 1.1 V; default islands run at 0.9 V.
	if err := c.SetTileDivider(0, 2); err == nil {
		t.Fatal("divider 2 at 0.9 V should be rejected")
	}
	c.Launch(0, "p", func(ctx *Ctx) {
		if err := c.SetIslandVoltage(ctx.Proc, 0, Voltage1V1); err != nil {
			t.Error(err)
		}
		if err := c.SetTileDivider(0, 2); err != nil {
			t.Errorf("divider 2 at 1.1 V rejected: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.TileFrequencyMHz(0) != 800 {
		t.Errorf("tile 0 at %d MHz, want 800", c.TileFrequencyMHz(0))
	}
}

func TestVoltageLoweringBlockedByFastTile(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	c.Launch(0, "p", func(ctx *Ctx) {
		// Tile 1 (same island as tile 0) stays at divider 3 (needs 0.9 V);
		// dropping the island to 0.7 V must fail.
		if err := c.SetIslandVoltage(ctx.Proc, 0, Voltage0V7); err == nil {
			t.Error("lowering below a tile's requirement should fail")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageChangeTakesTime(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	var elapsed sim.Cycles
	c.Launch(0, "p", func(ctx *Ctx) {
		t0 := ctx.Now()
		if err := c.SetIslandVoltage(ctx.Proc, 0, Voltage1V1); err != nil {
			t.Error(err)
		}
		elapsed = ctx.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < VoltageChangeCycles {
		t.Errorf("voltage change took %d cycles, want >= %d", elapsed, VoltageChangeCycles)
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

func TestVoltageScalingQuadraticPower(t *testing.T) {
	k := sim.NewKernel()
	c := NewChip(k, 0, DefaultParams())
	nominal := c.TilePowerWatts(0)
	k.Spawn("p", func(p *sim.Proc) {
		// Slow the island's tiles so 0.7 V becomes legal, then drop it.
		for tile := 0; tile < TilesPerVoltageIsland; tile++ {
			if err := c.SetTileDivider(tile, 8); err != nil {
				t.Error(err)
			}
		}
		if err := c.SetIslandVoltage(p, 0, Voltage0V7); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	scaled := c.TilePowerWatts(0)
	// (0.7/0.9)^2 * (200/533) dynamic + (0.7/0.9)^2 leakage.
	vv := (700.0 / 900) * (700.0 / 900)
	want := TileDynamicWattsNominal*vv*(200.0/533.0) + TileLeakageWattsNominal*vv
	if scaled < want*0.99 || scaled > want*1.01 {
		t.Errorf("scaled power = %.3f W, want %.3f", scaled, want)
	}
	if scaled >= nominal/2 {
		t.Errorf("DVFS saved too little: %.3f W vs nominal %.3f W", scaled, nominal)
	}
}
