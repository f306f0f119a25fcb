package harness

import (
	"fmt"
	"sync/atomic"

	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// pdesWorkers mirrors the -pdes flag of the commands: 0 runs the
// classic single-kernel engine, N>0 runs the domain-decomposed engine
// (one kernel per device plus the host kernel) with N worker
// goroutines. N=1 is the serial identity reference: by the PDES
// determinism contract its output is byte-identical to any N.
var pdesWorkers atomic.Int64

// SetPDES selects the simulation engine for every measurement this
// package subsequently runs: 0 = classic single kernel, N>0 = PDES
// with N workers. Process-wide, like SetParallelism; it returns the
// previous setting.
func SetPDES(workers int) int { return int(pdesWorkers.Swap(int64(workers))) }

// PDESWorkers reports the currently selected PDES worker count (0 =
// classic engine).
func PDESWorkers() int { return int(pdesWorkers.Load()) }

// pdesSinks builds one observability sink per kernel of a decomposed
// system, labelled <label>/k<N> (device kernels) and <label>/khost, and
// attaches them. Per-kernel sinks are required under PDES because a
// sink is single-kernel state.
func pdesSinks(label string, sys *vscc.PDESSystem) []*trace.Sink {
	n := sys.PDES.N()
	sinks := make([]*trace.Sink, n)
	for i := 0; i < n-1; i++ {
		sinks[i] = observe(fmt.Sprintf("%s/k%d", label, i), sys.PDES.Kernel(i))
	}
	sinks[n-1] = observe(label+"/khost", sys.PDES.Kernel(n-1))
	sys.Instrument(sinks)
	return sinks
}
