package taskrt

import (
	"testing"

	"vscc/internal/vscc"
)

// BenchmarkTaskrtWorkloads measures one full run of each workload —
// graph construction, the simulated execution with stealing and
// argument movement, and the state hash — on the vDMA scheme over two
// devices and four ranks, the taskrt-identity configuration. The
// repository's benchmark records the per-task cost as taskrt.task_ns
// (bench/baseline.json).
func BenchmarkTaskrtWorkloads(b *testing.B) {
	for _, wl := range Workloads() {
		b.Run(wl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := New(Config{Scheme: vscc.SchemeVDMA})
				if err := Build(rt, wl, 4, 8, 4); err != nil {
					b.Fatal(err)
				}
				if err := rt.Run(newSession(b, 2, 4, vscc.SchemeVDMA)); err != nil {
					b.Fatal(err)
				}
				if rt.StateHash() == "" {
					b.Fatal("empty hash")
				}
			}
		})
	}
}
