// Benchmarks regenerating the paper's evaluation (one per figure; the
// experiment ids refer to DESIGN.md §4). Each benchmark iteration runs a
// complete deterministic simulation; the interesting output is the
// reported custom metric (MB/s or GFLOP/s), which reproduces the paper's
// axes, not the wall-clock ns/op.
//
//	go test -bench=. -benchmem
package vscc_test

import (
	"fmt"
	"testing"

	"vscc/internal/harness"
	"vscc/internal/ircce"
	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/vscc"
)

// benchSizes is a representative subset of the Fig. 6 sweep (full sweep
// via cmd/pingpong).
var benchSizes = []int{1024, 8192, 65536}

// BenchmarkFig6aOnChipPingPong measures E1: on-chip point-to-point
// throughput under RCCE's blocking protocol and iRCCE's pipelined one.
func BenchmarkFig6aOnChipPingPong(b *testing.B) {
	protos := []struct {
		name string
		mk   func() rcce.Protocol
	}{
		{"rcce-blocking", nil},
		{"ircce-pipelined", func() rcce.Protocol { return &ircce.PipelinedProtocol{} }},
	}
	for _, p := range protos {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%dB", p.name, size), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					pts, err := harness.OnChipPingPong(p.mk, 0, 1, []int{size}, 3)
					if err != nil {
						b.Fatal(err)
					}
					last = pts[0].MBps
				}
				b.ReportMetric(last, "MB/s")
			})
		}
	}
}

// BenchmarkFig6bInterDevice measures E2: cross-device throughput for
// every vSCC scheme, including the bounds.
func BenchmarkFig6bInterDevice(b *testing.B) {
	schemes := []vscc.Scheme{
		vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet,
		vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel,
	}
	for _, scheme := range schemes {
		for _, size := range benchSizes {
			name := fmt.Sprintf("%s/%dB", schemeSlug(scheme), size)
			b.Run(name, func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					pts, err := harness.InterDevicePingPong(scheme, []int{size}, 3)
					if err != nil {
						b.Fatal(err)
					}
					last = pts[0].MBps
				}
				b.ReportMetric(last, "MB/s")
			})
		}
	}
}

func schemeSlug(s vscc.Scheme) string {
	switch s {
	case vscc.SchemeRouting:
		return "routing"
	case vscc.SchemeHostRouted:
		return "lower-bound"
	case vscc.SchemeCachedGet:
		return "cached-get"
	case vscc.SchemeRemotePut:
		return "remote-put"
	case vscc.SchemeVDMA:
		return "vdma"
	case vscc.SchemeHWAccel:
		return "upper-bound"
	}
	return "unknown"
}

// BenchmarkFig7NPBBT measures E3: BT class C scalability in the optimal
// (vDMA) configuration for a subset of the square process counts, plus
// the worst-case routing configuration at one cross-device count. The
// full 14-point sweep is cmd/npbbt.
func BenchmarkFig7NPBBT(b *testing.B) {
	for _, ranks := range []int{16, 49, 100} {
		b.Run(fmt.Sprintf("vdma/%dranks", ranks), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				pt, err := harness.BTRun(harness.BTSweepConfig{
					Class: npb.ClassC, Iterations: 1, Scheme: vscc.SchemeVDMA, Devices: 5,
				}, ranks)
				if err != nil {
					b.Fatal(err)
				}
				last = pt.GFlops
			}
			b.ReportMetric(last, "GFLOP/s")
		})
	}
	b.Run("routing/64ranks", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			pt, err := harness.BTRun(harness.BTSweepConfig{
				Class: npb.ClassC, Iterations: 1, Scheme: vscc.SchemeRouting, Devices: 5,
			}, 64)
			if err != nil {
				b.Fatal(err)
			}
			last = pt.GFlops
		}
		b.ReportMetric(last, "GFLOP/s")
	})
}

// BenchmarkFig8TrafficMatrix measures E4: the 64-rank class C traffic
// capture, reporting the heaviest pair volume scaled to the paper's 200
// iterations (~186 MB).
func BenchmarkFig8TrafficMatrix(b *testing.B) {
	var maxMB float64
	for i := 0; i < b.N; i++ {
		m, err := harness.CaptureTraffic(harness.TrafficConfig{
			Class: npb.ClassC, Ranks: 64, Iterations: 1, ScaleTo: 200,
			Scheme: vscc.SchemeVDMA,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, _, bytes := m.MaxPair()
		maxMB = float64(bytes) / 1e6
	}
	b.ReportMetric(maxMB, "maxpairMB")
}

// BenchmarkSweepParallel measures the wall-clock of whole figure sweeps
// — a Fig. 6a-shaped message-size sweep and a Fig. 7-shaped rank-count
// sweep — serial against the bounded worker pool. Every sweep point is
// an independent simulation, so on an N-core host the pool approaches
// an N-fold wall-clock cut with byte-identical output (asserted by
// the identity table's pingpong-onchip and bt-classic rows).
func BenchmarkSweepParallel(b *testing.B) {
	sizes := []int{1024, 4096, 16384, 65536}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fig6a-pingpong/parallel-%d", par), func(b *testing.B) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				if _, err := harness.OnChipPingPong(nil, 0, 1, sizes, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	counts := []int{4, 9, 16, 25, 36, 49}
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("fig7-bt/parallel-%d", par), func(b *testing.B) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				_, err := harness.BTSweep(harness.BTSweepConfig{
					Class: npb.ClassW, Iterations: 1, Scheme: vscc.SchemeVDMA, Devices: 2,
				}, counts)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPDESBT measures E13: wall-clock of one cross-device BT run
// on the domain-decomposed engine (one kernel per device plus the host
// kernel) at 1, 2 and 4 workers, against the classic single-kernel
// engine on the same point. Output is byte-identical at every worker
// count (TestPDESSerialParallelIdentity), so the only thing that moves
// is ns/op; on a 1-CPU host the counts are roughly neutral and the
// scaling shows on multi-core hosts. The repository's benchmark records
// the class B point as the bt_xdev_pdes workload (bench/baseline.json).
func BenchmarkPDESBT(b *testing.B) {
	cfg := harness.BTSweepConfig{
		Class: npb.ClassW, Iterations: 1, Scheme: vscc.SchemeVDMA, Devices: 2,
	}
	const ranks = 64
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.BTRun(cfg, ranks); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			harness.SetPDES(workers)
			defer harness.SetPDES(0)
			for i := 0; i < b.N; i++ {
				if _, err := harness.BTRun(cfg, ranks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7OnChipPeak tracks the 150 MB/s on-chip calibration point.
func BenchmarkE7OnChipPeak(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		pts, err := harness.OnChipPingPong(func() rcce.Protocol { return &ircce.PipelinedProtocol{} }, 0, 1, []int{262144}, 3)
		if err != nil {
			b.Fatal(err)
		}
		peak = pts[0].MBps
	}
	b.ReportMetric(peak, "MB/s")
}
