package main

import (
	"bytes"
	"testing"

	"vscc/internal/harness"
	"vscc/internal/npb"
	"vscc/internal/vscc"
)

// -traffic prints the harness's Fig. 8 capture of the session it names
// at npbbt's -class and -iters. The paper's 64-rank class C matrix is
// results/fig8_traffic.txt, too slow for this suite: `make results`
// regenerates it.
func TestTrafficFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-traffic", "16", "-class", "W", "-iters", "1", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	m, err := harness.CaptureTraffic(harness.TrafficConfig{
		Class: npb.ClassW, Ranks: 16, Iterations: 1, Scheme: vscc.SchemeVDMA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), m.CSV(); got != want {
		t.Errorf("npbbt -traffic 16 -class W -iters 1 -csv printed\n%s\nwant\n%s", got, want)
	}
}
