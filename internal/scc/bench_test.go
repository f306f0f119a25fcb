package scc

import (
	"testing"

	"vscc/internal/mem"
	"vscc/internal/sim"
)

// BenchmarkWriteMPBLine measures one MPB line store through the
// write-combine buffer and its drain into the local LMB: WriteMPB, then
// FlushWCB. full writes the whole 32-byte line, partial a 12-byte run in
// its middle. ns/op is host time per line, kernel events included.
//
//	go test ./internal/scc -bench=WriteMPBLine -benchmem
func BenchmarkWriteMPBLine(b *testing.B) {
	for _, c := range []struct {
		name string
		off  int
		n    int
	}{
		{"full", 0, mem.LineSize},
		{"partial", 10, 12},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := sim.NewKernel()
			chip := newTestChip(k)
			data := make([]byte, c.n)
			chip.Launch(0, "store", func(ctx *Ctx) {
				for i := 0; i < b.N; i++ {
					ctx.WriteMPB(0, 0, (i%256)*mem.LineSize+c.off, data)
					ctx.FlushWCB()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
