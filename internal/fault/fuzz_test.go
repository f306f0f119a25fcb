package fault

import (
	"testing"

	"vscc/internal/sim"
)

// FuzzParseSpec: ParseSpec never panics, and no spec it accepts holds a
// cycle value of 2^63 or more — a negative count wrapped by the unsigned
// sim.Cycles. The seeds are the specs README, CI and the chaos targets
// run, plus the negative values the parser must refuse.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"",
		"seed=42,drop=200,delay=100:5000,crash=400000,degrade=10",
		"seed=7,devcrash=600000:4:5000000,budget=400000,waitretries=2",
		"seed=1,devcrash=400000:1:500000",
		"seed=1,devcrash=150000:1:200000,ckpt=50000,devretry=1",
		"seed=7,devcrash=200000:1,devretry=1",
		"seed=11,ckpt=50000,budget=100000,waitretries=8", // chaos.SchedBase
		"seed=11,ckpt=30000,budget=100000,waitretries=8", // chaos.TaskrtBase
		"seed=1,stall=50000:20000,devlinkdown=5000:2,rejoin=150000,retx=111,watchdog=333,verify=-1,promote=-1",
		"stall=1000:-1",
		"crash=-5,ckpt=-1",
		"delay=10:-5,retx=-3",
		"devcrash=-1:1:-1",
		"budget=9223372036854775807",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil || cfg == nil {
			return
		}
		r := cfg.Recovery
		cycles := []sim.Cycles{cfg.DelayCycles, cfg.CkptInterval, cfg.RejoinCycles, r.RetxTimeout, r.WaitBudget, r.WatchdogCycles}
		cycles = append(cycles, cfg.CrashAt...)
		for _, w := range cfg.StallAt {
			cycles = append(cycles, w.At, w.For)
		}
		for _, d := range append(cfg.DevCrashAt, cfg.DevLinkDownAt...) {
			cycles = append(cycles, d.At, d.Down)
		}
		for _, c := range cycles {
			if c >= 1<<63 {
				t.Fatalf("ParseSpec(%q) accepted cycle value %d >= 2^63", spec, c)
			}
		}
	})
}
