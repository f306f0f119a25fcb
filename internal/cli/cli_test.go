package cli

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vscc/internal/harness"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		body       error
		ran        bool
		code       int
		stderrHead string
	}{
		{nil, nil, true, 0, ""},
		{nil, errors.New("boom"), true, 1, "demo: boom\n"},
		{[]string{"-nosuchflag"}, nil, false, 2, "flag provided but not defined"},
		{[]string{"-h"}, nil, false, 0, "Usage of demo"},
		{[]string{"-fault", "bogus"}, nil, false, 1, "demo: "},
	} {
		var stdout, stderr bytes.Buffer
		c := New("demo", &stdout, &stderr)
		c.Sweep()
		ran := false
		code := c.Run(tc.args, func() error { ran = true; return tc.body })
		if code != tc.code || !strings.HasPrefix(stderr.String(), tc.stderrHead) {
			t.Errorf("Run(%q) = %d, stderr %q; want %d, stderr starting %q", tc.args, code, stderr.String(), tc.code, tc.stderrHead)
		}
		if ran != tc.ran {
			t.Errorf("Run(%q) ran the body: %v, want %v", tc.args, ran, tc.ran)
		}
	}
}

// A sweep command's flags reach the harness while its body runs, its
// metrics report and trace file are written after it, and every setting
// is back at its default — the caller's observer reinstalled — once Run
// returns, so commands can be driven one after another in one process.
func TestSweepAppliesFlagsAndResets(t *testing.T) {
	probed := 0
	harness.SetObserver(func(string, *sim.Kernel) *trace.Sink { probed++; return nil })
	defer harness.SetObserver(nil)

	tracePath := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	c := New("demo", &stdout, &stderr)
	c.Sweep()
	code := c.Run([]string{"-parallel", "3", "-check", "-metrics", "-trace", tracePath, "-fault", "seed=7"}, func() error {
		if got := harness.Parallelism(); got != 3 {
			t.Errorf("Parallelism() in the body = %d, want 3", got)
		}
		harness.SetPDES(2)
		_, err := harness.OnChipPingPong(nil, 0, 1, []int{64}, 1)
		return err
	})
	if code != 0 {
		t.Fatalf("Run = %d: %s", code, stderr.String())
	}
	if probed != 0 {
		t.Error("the caller's observer saw a point the command's collector should own")
	}
	if !strings.HasPrefix(stdout.String(), "== metrics: fig6a/") || !strings.Contains(stdout.String(), "simulated time:") {
		t.Errorf("metrics report missing from stdout:\n%s", stdout.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if events, err := trace.ReadChrome(f); err != nil || len(events) == 0 {
		t.Errorf("trace file: %d events, %v", len(events), err)
	}

	if got := harness.Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism() after Run = %d, want the default %d", got, runtime.GOMAXPROCS(0))
	}
	if got := harness.PDESWorkers(); got != 0 {
		t.Errorf("PDESWorkers() after Run = %d, want 0", got)
	}
	if on := harness.SetConsistencyCheck(false); on {
		t.Error("consistency checker still on after Run")
	}
	if _, err := harness.OnChipPingPong(nil, 0, 1, []int{64}, 1); err != nil {
		t.Fatal(err)
	}
	if probed != 1 {
		t.Errorf("caller's observer saw %d points after Run, want 1", probed)
	}
}

// -cpuprofile and -memprofile write both profiles around the run and
// leave what the command prints byte-for-byte unchanged.
func TestProfileFlags(t *testing.T) {
	runDemo := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		c := New("demo", &stdout, &stderr)
		c.Sweep()
		code := c.Run(append(args, "-metrics"), func() error {
			pts, err := harness.OnChipPingPong(nil, 0, 1, []int{64, 4096}, 2)
			for _, p := range pts {
				fmt.Fprintf(&stdout, "%d %d %.3f\n", p.Size, p.Cycles, p.MBps)
			}
			return err
		})
		if code != 0 {
			t.Fatalf("Run(%q) = %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain := runDemo()
	profiled := runDemo("-cpuprofile", cpu, "-memprofile", mem)
	if profiled != plain {
		t.Errorf("stdout changed under profiling:\n%s\nwant\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", filepath.Base(path), err)
		}
	}
}
