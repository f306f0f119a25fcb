// Serial-vs-parallel byte-identity for the task runtime, in process:
// a taskrt sweep's replicas are independent simulations, so fanning
// them over the harness worker pool must be unobservable — the Chrome
// trace export, the metrics reports and every sweep point must be
// byte-identical between a serial run and a 4-way -parallel run, with
// and without a scheduled device crash. The taskrt-stencil rows of
// TestIdentity make the same claim of the taskbench binary.
package vscc_test

import (
	"fmt"
	"strings"
	"testing"

	"vscc/internal/harness"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// taskrtFingerprint is everything a taskrt sweep externalizes.
type taskrtFingerprint struct {
	points  string // every TaskrtPoint line, replica order
	chrome  string // Chrome trace export of all replica sinks
	reports string // metrics reports (incl. taskrt.* and fault counters)
}

func (f taskrtFingerprint) diff(t *testing.T, g taskrtFingerprint) {
	t.Helper()
	if f.points != g.points {
		t.Errorf("sweep points differ:\n--- serial ---\n%s\n--- parallel ---\n%s", f.points, g.points)
	}
	if f.chrome != g.chrome {
		t.Errorf("chrome trace differs (%d vs %d bytes)", len(f.chrome), len(g.chrome))
	}
	if f.reports != g.reports {
		t.Errorf("metrics reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", f.reports, g.reports)
	}
}

// runTaskrtSweep runs the stencil workload as a 4-replica sweep under
// the given parallelism and fault spec and fingerprints the output.
func runTaskrtSweep(t *testing.T, parallel int, faultSpec string) taskrtFingerprint {
	t.Helper()
	prevPar := harness.Parallelism()
	harness.SetParallelism(parallel)
	defer harness.SetParallelism(prevPar)
	if err := harness.SetFaultSpec(faultSpec); err != nil {
		t.Fatalf("SetFaultSpec(%q): %v", faultSpec, err)
	}
	defer harness.SetFaultSpec("")

	var col trace.Collector
	prevObs := harness.SetObserver(func(label string, k *sim.Kernel) *trace.Sink {
		return col.New(label, k)
	})
	defer harness.SetObserver(prevObs)

	points, err := harness.TaskrtSweep(harness.TaskrtConfig{
		Workload: "stencil",
		Scheme:   vscc.SchemeVDMA,
		Devices:  2,
		Ranks:    4,
		Size:     4,
		Iters:    6,
		Replicas: 4,
	})
	if err != nil {
		t.Fatalf("TaskrtSweep(parallel=%d, fault=%q): %v", parallel, faultSpec, err)
	}
	var lines strings.Builder
	for _, p := range points {
		fmt.Fprintln(&lines, p)
	}
	caps := col.Captures()
	var chrome strings.Builder
	if err := trace.WriteChrome(&chrome, caps); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return taskrtFingerprint{
		points:  lines.String(),
		chrome:  chrome.String(),
		reports: trace.Report(caps),
	}
}

// TestTaskrtSerialParallelIdentity is the identity gate: serial vs
// 4-way parallel sweeps, fault-free and with a mid-run device crash.
func TestTaskrtSerialParallelIdentity(t *testing.T) {
	const devCrash = "seed=1,devcrash=150000:1:200000,ckpt=50000,devretry=1"
	for _, tc := range []struct {
		name string
		spec string
	}{
		{"fault-free", ""},
		{"devcrash", devCrash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := runTaskrtSweep(t, 1, tc.spec)
			parallel := runTaskrtSweep(t, 4, tc.spec)
			serial.diff(t, parallel)
			// Replicas of one sweep are identical simulations, so
			// their hashes (and whole point lines modulo the replica
			// label) must agree with each other too.
			lines := strings.Split(strings.TrimSpace(serial.points), "\n")
			var base []string
			for _, ln := range lines {
				if !strings.HasPrefix(ln, "taskrt/") {
					continue // injector summary continuation lines
				}
				base = append(base, ln)
			}
			if len(base) != 4 {
				t.Fatalf("expected 4 replica lines, got %d:\n%s", len(base), serial.points)
			}
			for i, ln := range base {
				want := strings.Replace(base[0], "rep=00", fmt.Sprintf("rep=%02d", i), 1)
				if ln != want {
					t.Errorf("replica %d line diverges:\n%s\nwant\n%s", i, ln, want)
				}
			}
			if tc.spec != "" && !strings.Contains(serial.reports, "inject.devcrash") {
				t.Error("devcrash sweep reports no inject.devcrash counter")
			}
		})
	}
}
