// Command chaos runs the deterministic fault-campaign engine: a seeded
// walk over fault site x device x cycle-window, each point executed
// through a recovery harness (the devretry scheduler and the
// re-executing task runtime) and checked against its invariants plus
// rerun byte-identity. On a violation it shrinks the schedule to a
// minimal reproducer spec, prints it verbatim, optionally writes it to
// a file (for CI artifact upload), and exits nonzero.
//
// Usage:
//
//	chaos [-seed N] [-n POINTS] [-target all|sched|taskrt] [-maxfaults N] [-out FILE] [-v]
//	chaos -repro SPEC -target sched|taskrt
//
// The -repro form re-checks one spec (e.g. a minimized reproducer from
// an earlier campaign) against a single target and reports pass/fail.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vscc/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "campaign seed: the walk is a pure function of it")
	n := fs.Int("n", 200, "points to walk")
	targetName := fs.String("target", "all", "harness to drive: all, sched or taskrt")
	maxFaults := fs.Int("maxfaults", 4, "most faults per schedule")
	out := fs.String("out", "", "write the minimized reproducer report to this file on violation")
	repro := fs.String("repro", "", "re-check one spec instead of walking a campaign")
	verbose := fs.Bool("v", false, "log every point")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var targets []chaos.Target
	switch *targetName {
	case "all":
		targets = chaos.DefaultTargets()
	case "sched":
		targets = []chaos.Target{chaos.SchedTarget()}
	case "taskrt":
		targets = []chaos.Target{chaos.TaskrtTarget()}
	default:
		fmt.Fprintf(stderr, "chaos: unknown target %q (want all, sched or taskrt)\n", *targetName)
		return 2
	}

	if *repro != "" {
		if *targetName == "all" {
			fmt.Fprintln(stderr, "chaos: -repro needs -target sched or -target taskrt")
			return 2
		}
		t := targets[0]
		if _, problems := t.Run(*repro); len(problems) > 0 {
			fmt.Fprintf(stdout, "chaos: target %s still violates invariants under %s\n", t.Name, *repro)
			for _, p := range problems {
				fmt.Fprintf(stdout, "  - %s\n", p)
			}
			return 1
		}
		fmt.Fprintf(stdout, "chaos: target %s passes under %s\n", t.Name, *repro)
		return 0
	}

	c := &chaos.Campaign{Seed: *seed, N: *n, MaxFaults: *maxFaults, Targets: targets}
	if *verbose {
		c.Log = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}
	points, v := c.Run()
	if v != nil {
		report := v.Error()
		fmt.Fprint(stdout, report)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
				fmt.Fprintf(stderr, "chaos: writing %s: %v\n", *out, err)
			}
		}
		return 1
	}
	fmt.Fprintf(stdout, "chaos: seed=%d points=%d target=%s maxfaults=%d: all invariants held\n",
		*seed, points, *targetName, *maxFaults)
	return 0
}
