package harness

import (
	"fmt"

	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// BTPoint is one Fig. 7 measurement.
type BTPoint struct {
	Ranks  int
	GFlops float64
	Cycles sim.Cycles
}

// BTSweepConfig controls a Fig. 7 sweep.
type BTSweepConfig struct {
	Class npb.Class
	// Iterations per run (steady state); the class default (200) is
	// impractical inside the simulator, so runs use a few iterations —
	// per-iteration time is steady, so GFLOP/s is unaffected.
	Iterations int
	// Scheme is the inter-device configuration (the paper contrasts the
	// optimal vDMA scheme with the worst-case transparent routing).
	Scheme vscc.Scheme
	// Devices sizes the vSCC (5 for the 240-core flagship).
	Devices int
}

// BTSweep runs NPB BT for each square rank count and returns the
// scalability curve. Rank counts above one device's 48 cores exercise
// the inter-device path. Each count is an independent simulation on its
// own vSCC, so the sweep fans out across the worker pool (see
// SetParallelism) with results in input order.
func BTSweep(cfg BTSweepConfig, counts []int) ([]BTPoint, error) {
	return mapPoints(counts, func(ranks int) (BTPoint, error) {
		return BTRun(cfg, ranks)
	})
}

// LUSweep is BTSweep for the NPB LU extension workload.
func LUSweep(cfg BTSweepConfig, counts []int) ([]BTPoint, error) {
	return mapPoints(counts, func(ranks int) (BTPoint, error) {
		return LURun(cfg, ranks)
	})
}

// BTRun executes one BT configuration on a fresh vSCC.
func BTRun(cfg BTSweepConfig, ranks int) (BTPoint, error) { return npbPoint("bt", cfg, ranks) }

// LURun executes the NPB LU extension workload (latency-bound wavefront
// sweeps — the communication contrast to BT) on a fresh vSCC.
func LURun(cfg BTSweepConfig, ranks int) (BTPoint, error) { return npbPoint("lu", cfg, ranks) }

// npbPoint runs one NPB workload ("bt" or "lu") on a fresh vSCC of the
// engine SetPDES selected. The engines differ in the system constructor
// and in their sinks — one for the classic kernel, one per kernel under
// PDES — and in how errors read: the classic engine names the point only
// in a failed run, PDES in set-up errors too.
func npbPoint(app string, cfg BTSweepConfig, ranks int) (BTPoint, error) {
	if cfg.Devices == 0 {
		cfg.Devices = max((ranks+scc.NumCores-1)/scc.NumCores, 1)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 2
	}
	sysCfg := sysConfig(vscc.Config{Devices: cfg.Devices, Scheme: cfg.Scheme})
	named := func(err error) error { return fmt.Errorf("%s ranks=%d: %w", app, ranks, err) }
	setup := func(err error) error { return err }
	var session *rcce.Session
	if workers := PDESWorkers(); workers > 0 {
		named = func(err error) error { return fmt.Errorf("%s pdes ranks=%d: %w", app, ranks, err) }
		setup = named
		sys, err := vscc.NewPDESSystem(sysCfg, workers)
		if err != nil {
			return BTPoint{}, setup(err)
		}
		// The label deliberately omits the worker count: PDES output is
		// worker-count-invariant, and the CI identity gate byte-compares
		// trace files across worker counts.
		pdesSinks(fmt.Sprintf("fig7/%s/%s/pdes/ranks=%03d", app, cfg.Scheme.Key(), ranks), sys)
		if session, err = sys.NewSession(ranks); err != nil {
			return BTPoint{}, setup(err)
		}
	} else {
		k := sim.NewKernel()
		sys, err := vscc.NewSystem(k, sysCfg)
		if err != nil {
			return BTPoint{}, setup(err)
		}
		sink := observe(fmt.Sprintf("fig7/%s/%s/ranks=%03d", app, cfg.Scheme.Key(), ranks), k)
		sys.Instrument(sink)
		if session, err = sys.NewSession(ranks, rcce.WithSink(sink)); err != nil {
			return BTPoint{}, setup(err)
		}
	}
	npbCfg := npb.Config{Class: cfg.Class, Iterations: cfg.Iterations, Timing: true}
	var res npb.Result
	var err error
	if app == "lu" {
		d, derr := npb.NewLUDecomp(cfg.Class.N, ranks)
		if derr != nil {
			return BTPoint{}, setup(derr)
		}
		res, err = npb.RunLU(session, d, npbCfg)
	} else {
		d, derr := npb.NewDecomp(cfg.Class.N, ranks)
		if derr != nil {
			return BTPoint{}, setup(derr)
		}
		res, err = npb.RunOn(session, d, npbCfg)
	}
	if err != nil {
		return BTPoint{}, named(err)
	}
	return BTPoint{Ranks: ranks, GFlops: res.GFlops, Cycles: res.Cycles}, nil
}
