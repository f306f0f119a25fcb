package taskrt

import (
	"encoding/binary"
	"fmt"
	"math"

	"vscc/internal/fault"
)

// Build populates rt with one of the named workloads using harness-level
// knobs: size scales the data decomposition, iters the request/sweep
// count, workers the rank count the graph will run on (region owners are
// assigned against it).
//
//	cholesky: size×size tile grid of 16×16 float64 tiles
//	stencil:  size horizontal strips of a 16-wide Jacobi grid, iters sweeps
//	kv:       size shards of 2 KB, iters deterministic requests
func Build(rt *Runtime, workload string, size, iters, workers int) error {
	switch workload {
	case "cholesky":
		return BuildCholesky(rt, size, 16, workers)
	case "stencil":
		return BuildStencil(rt, 16, 8, size, iters, workers)
	case "kv":
		return BuildKV(rt, size, 2048, iters, 1, workers)
	}
	return fmt.Errorf("taskrt: unknown workload %q (cholesky|stencil|kv)", workload)
}

// Workloads lists the Build names.
func Workloads() []string { return []string{"cholesky", "stencil", "kv"} }

// getF and putF view a region buffer as a little-endian float64 array.
func getF(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

func putF(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
}

// splitmix64 is the first draw of the fault injector's generator seeded
// with x, used as a keyed hash: deterministic, allocation-free, and
// usable in model packages where math/rand is off limits (kernelclock
// lint).
func splitmix64(x uint64) uint64 { return fault.SplitMix64(&x) }
