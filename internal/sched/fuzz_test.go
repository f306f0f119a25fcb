package sched

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vscc/internal/pcie"
)

// FuzzParseWorkload drives the workload-file grammar with arbitrary
// text: the parser must never panic, and every tenant it accepts must
// carry a QoS envelope the host can apply — a finite bandwidth cap that
// is 0 or builds a token bucket, and a non-negative burst and cache
// partition. The parser is the only gate between a workload file and
// the simulation.
func FuzzParseWorkload(f *testing.F) {
	files, err := filepath.Glob("../../workloads/*.jobs")
	if err != nil || len(files) == 0 {
		f.Fatalf("no workload files to seed from: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	const job = "\njob tenant=1 name=x"
	for _, src := range []string{
		// The ParseWorkload doc comment.
		"# comment\ntenant id=1 bw=0.05 burst=4096 cache=64\n" +
			"job tenant=1 name=pp-a submit=0 kind=pingpong ranks=2 scheme=vdma size=1024 reps=4\n" +
			"job tenant=1 name=bt-a submit=1000 kind=bt ranks=4 scheme=cached-get class=S iters=2\n",
		// Caps no token bucket can shape.
		"tenant id=1 bw=0.0001" + job,
		"tenant id=1 bw=NaN" + job,
		"tenant id=1 bw=+Inf" + job,
		"tenant id=1 bw=-0.5" + job,
		"tenant id=1 bw=0.5 burst=-5" + job,
		"tenant id=1 cache=-1" + job,
		"tenant id=1 bw=0.00048828125" + job, // 1/2048: the least shapeable rate
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseWorkload(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, ts := range w.Tenants {
			bw := ts.BWBytesPerCycle
			if math.IsNaN(bw) || math.IsInf(bw, 0) || bw < 0 || ts.BurstBytes < 0 || ts.CacheLines < 0 {
				t.Fatalf("accepted tenant %+v", ts)
			}
			if bw > 0 {
				pcie.NewTokenBucket(bw, ts.BurstBytes)
			}
		}
	})
}
