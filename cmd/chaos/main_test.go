package main

import (
	"bytes"
	"strings"
	"testing"

	"vscc/internal/chaos"
)

// TestExitStatus drives run in process: 0 for a clean walk and a passing
// reproducer, 1 for a reproducer the target rejects, 2 for a usage
// error. Each case also names the line that explains its status.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		out  string // expected in stdout (codes 0 and 1) or stderr (2)
	}{
		{"walk", []string{"-n", "2"}, 0, "points=2 target=all maxfaults=4: all invariants held"},
		{"repro passes", []string{"-repro", chaos.SchedBase + ",devcrash=200000:1", "-target", "sched"}, 0,
			"chaos: target sched passes under"},
		{"repro parse problem", []string{"-repro", "bogus=1", "-target", "sched"}, 1,
			`- parse: fault: spec token "bogus=1" at byte 0: unknown setting`},
		{"unknown target", []string{"-target", "nope"}, 2, `unknown target "nope"`},
		{"repro needs one target", []string{"-repro", "seed=1"}, 2, "-repro needs -target sched or -target taskrt"},
		{"bad flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("chaos %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
					strings.Join(c.args, " "), code, c.code, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if c.code == 2 {
				got = stderr.String()
			}
			if !strings.Contains(got, c.out) {
				t.Errorf("chaos %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.out, got)
			}
		})
	}
}
