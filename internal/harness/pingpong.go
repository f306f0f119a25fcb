// Package harness builds the measurements behind the paper's evaluation
// section: ping-pong throughput curves (Fig. 6a/6b), the NPB BT
// scalability sweep (Fig. 7), the traffic matrix (Fig. 8), and the
// headline claims of §1/§4/§5. It is shared by the cmd/ tools, the
// testing.B benchmarks and EXPERIMENTS.md.
package harness

import (
	"fmt"

	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

// Sizes6 is the message-size sweep of Fig. 6 (32 B to 256 KB, powers of
// two).
func Sizes6() []int {
	var sizes []int
	for s := 32; s <= 256*1024; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// PingPongPoint is one ping-pong measurement.
type PingPongPoint struct {
	Size   int
	Cycles sim.Cycles // total for Reps round trips
	Reps   int
	MBps   float64 // one-way throughput, 1 MB = 1e6 B (paper axes)
}

// pingPong runs Reps round trips of size bytes between rank a and rank b
// of a fresh session produced by mk and returns the throughput.
func pingPong(mk func() (*rcce.Session, error), a, b, size, reps int) (PingPongPoint, error) {
	session, err := mk()
	if err != nil {
		return PingPongPoint{}, err
	}
	params := session.Chip(a).Params
	var start, end sim.Cycles
	runErr := session.Run(func(r *rcce.Rank) {
		if r.ID() != a && r.ID() != b {
			return // a session's other ranks idle
		}
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		buf := make([]byte, size)
		switch r.ID() {
		case a:
			// One warmup round trip, unmeasured, to fill caches and
			// buffers as a real benchmark does.
			r.Send(b, msg)
			r.Recv(b, buf)
			start = r.Now()
			for i := 0; i < reps; i++ {
				r.Send(b, msg)
				r.Recv(b, buf)
			}
			end = r.Now()
		case b:
			r.Recv(a, buf)
			r.Send(a, msg)
			for i := 0; i < reps; i++ {
				r.Recv(a, buf)
				r.Send(a, msg)
			}
		}
	})
	if runErr != nil {
		return PingPongPoint{}, runErr
	}
	total := end - start
	// A round trip moves the message twice, so one-way throughput is
	// 2*reps*size bytes over the total time.
	mbps := params.MBPerSecond(uint64(size)*uint64(2*reps), total)
	return PingPongPoint{Size: size, Cycles: total, Reps: reps, MBps: mbps}, nil
}

// PingPongSweep measures one ping-pong point per message size between
// ranks a and b, building a fresh session per point with mk. Each point
// is an independent simulation, so the sweep fans out across the
// package's worker pool (see SetParallelism); results come back in size
// order regardless of the fan-out, identical to a serial sweep.
func PingPongSweep(mk func(size int) func() (*rcce.Session, error), a, b int, sizes []int, reps int) ([]PingPongPoint, error) {
	return mapPoints(sizes, func(size int) (PingPongPoint, error) {
		pt, err := pingPong(mk(size), a, b, size, reps)
		if err != nil {
			return PingPongPoint{}, fmt.Errorf("size %d: %w", size, err)
		}
		return pt, nil
	})
}

// OnChipPingPong measures on-chip ping-pong between two cores of a
// single SCC under the wire protocol produced by newProto (nil = RCCE
// default). A fresh protocol instance is created per measurement because
// stateful protocols (iRCCE pipelined) are bound to one session. cores
// picks the pair; the paper's best case uses adjacent cores.
func OnChipPingPong(newProto func() rcce.Protocol, coreA, coreB int, sizes []int, reps int) ([]PingPongPoint, error) {
	pts, err := PingPongSweep(func(size int) func() (*rcce.Session, error) {
		return func() (*rcce.Session, error) {
			k := sim.NewKernel()
			chip := ApplyCheck(scc.NewChip(k, 0, scc.DefaultParams()))
			places := []rcce.Place{{Dev: 0, Core: coreA}, {Dev: 0, Core: coreB}}
			var opts []rcce.Option
			protoName := "rcce"
			if newProto != nil {
				proto := newProto()
				protoName = proto.Name()
				opts = append(opts, rcce.WithProtocol(proto))
			}
			sink := observe(fmt.Sprintf("fig6a/%s/size=%07d", protoName, size), k)
			opts = append(opts, rcce.WithSink(sink))
			return rcce.NewSession(k, []*scc.Chip{chip}, places, opts...)
		}
	}, 0, 1, sizes, reps)
	if err != nil {
		return nil, fmt.Errorf("on-chip: %w", err)
	}
	return pts, nil
}

// InterDevicePingPong measures cross-device ping-pong (rank 0 on device
// 0 against rank 48 on device 1) under a vSCC scheme.
func InterDevicePingPong(scheme vscc.Scheme, sizes []int, reps int) ([]PingPongPoint, error) {
	pts, err := PingPongSweep(func(size int) func() (*rcce.Session, error) {
		return func() (*rcce.Session, error) {
			k := sim.NewKernel()
			sys, err := vscc.NewSystem(k, sysConfig(vscc.Config{Devices: 2, Scheme: scheme}))
			if err != nil {
				return nil, err
			}
			sink := observe(fmt.Sprintf("fig6b/%s/size=%07d", scheme.Key(), size), k)
			sys.Instrument(sink)
			return sys.NewSession(96, rcce.WithSink(sink))
		}
	}, 0, 48, sizes, reps)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", scheme, err)
	}
	return pts, nil
}

// ToSeries converts measurements to a plot series.
func ToSeries(name string, pts []PingPongPoint) stats.Series {
	s := stats.Series{Name: name}
	for _, p := range pts {
		s.Add(float64(p.Size), p.MBps)
	}
	return s
}

// PeakMBps returns the maximum throughput of a sweep.
func PeakMBps(pts []PingPongPoint) float64 {
	max := 0.0
	for _, p := range pts {
		if p.MBps > max {
			max = p.MBps
		}
	}
	return max
}
