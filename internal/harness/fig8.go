package harness

import (
	"fmt"

	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// TrafficConfig controls a Fig. 8 capture.
type TrafficConfig struct {
	Class npb.Class
	Ranks int // the paper's figure uses a 64-rank session
	// Iterations actually simulated; volumes are scaled to ScaleTo
	// iterations for reporting (the pattern repeats identically every
	// timestep).
	Iterations int
	ScaleTo    int
	Scheme     vscc.Scheme
}

// CaptureTraffic runs BT in timing mode with a traffic observer attached
// and returns the (scaled) matrix.
func CaptureTraffic(cfg TrafficConfig) (*trace.Matrix, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 1
	}
	if cfg.ScaleTo == 0 {
		cfg.ScaleTo = cfg.Class.Iterations
	}
	k := sim.NewKernel()
	devices := (cfg.Ranks + scc.NumCores - 1) / scc.NumCores
	sys, err := vscc.NewSystem(k, sysConfig(vscc.Config{Devices: devices, Scheme: cfg.Scheme}))
	if err != nil {
		return nil, err
	}
	scale := cfg.ScaleTo / cfg.Iterations
	m := trace.NewMatrix(cfg.Ranks, scc.NumCores)
	sink := observe(fmt.Sprintf("fig8/bt/%s/ranks=%03d", cfg.Scheme.Key(), cfg.Ranks), k)
	sys.Instrument(sink)
	session, err := sys.NewSession(cfg.Ranks, rcce.WithSink(sink), rcce.WithTrafficObserver(func(src, dest, bytes int) {
		m.Record(src, dest, bytes*scale)
	}))
	if err != nil {
		return nil, err
	}
	d, err := npb.NewDecomp(cfg.Class.N, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	if _, err := npb.RunOn(session, d, npb.Config{
		Class:      cfg.Class,
		Iterations: cfg.Iterations,
		Timing:     true,
	}); err != nil {
		return nil, err
	}
	return m, nil
}
