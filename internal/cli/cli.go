// Package cli is the command layer the simulation commands share: a
// flag set that reports instead of exiting, the flags they have in
// common (declared, with their help text, once), the wiring of those
// flags into the harness's process-wide settings, the metrics and
// trace outputs, and the CPU and memory profiles every command can
// write. Every Command.Run leaves those settings at their
// defaults and the previous observer installed when it returns, so a
// test can drive one command after another in one process.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"vscc/internal/harness"
	"vscc/internal/trace"
)

// Command is one run of a command-line program: its flag set, its
// output streams and the shared flags it declared.
type Command struct {
	*flag.FlagSet
	stdout, stderr         io.Writer
	shared                 *Flags
	sweep                  bool
	cpuProfile, memProfile string
}

// New returns a command whose flag set is named name and reports flag
// errors and -h usage on stderr. Every command has -cpuprofile and
// -memprofile: Run profiles the body into those files.
func New(name string, stdout, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &Command{FlagSet: fs, stdout: stdout, stderr: stderr}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write an allocation profile of the run to this file (go tool pprof)")
	return c
}

// Flags are the values of the shared flags.
type Flags struct {
	Parallel int
	Trace    string
	Metrics  bool
	Fault    string
	Check    bool
}

// Shared declares -parallel, -trace, -metrics and -fault. Run sizes the
// harness worker pool from -parallel; the other three are the command's
// to apply.
func (c *Command) Shared() *Flags {
	f := &Flags{}
	c.IntVar(&f.Parallel, "parallel", 0, "independent simulations run concurrently (0 = GOMAXPROCS, 1 = serial)")
	c.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file of every simulation")
	c.BoolVar(&f.Metrics, "metrics", false, "print a cycle-accurate metrics report per simulation")
	c.StringVar(&f.Fault, "fault", "", `deterministic fault schedule, e.g. "seed=7,drop=20,stall=1000000:200000" or "seed=1,devcrash=400000:1:500000" (grammar: internal/fault; the PDES engine takes device crashes only)`)
	c.shared = f
	return f
}

// Sweep declares the five flags of the sweep commands — Shared's four
// and -check — and has Run apply all of them: the worker pool, the MPB
// consistency checker and the fault schedule of every system the harness
// builds, and with -trace or -metrics a trace collector as the harness
// observer whose captures are written after the body.
func (c *Command) Sweep() {
	f := c.Shared()
	c.BoolVar(&f.Check, "check", false, "run with the MPB consistency checker (panics on stale-line reads)")
	c.sweep = true
}

// Run parses args and runs body, returning the exit status: 0 on
// success or -h, 2 on a flag error (already reported with the usage), 1
// when body or an output fails, with "name: error" on stderr.
func (c *Command) Run(args []string, body func() error) int {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := c.profiled(body); err != nil {
		fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
		return 1
	}
	return 0
}

// profiled runs the command under the requested profiles: the CPU
// profile spans the run, the allocation profile is written after it.
func (c *Command) profiled(body func() error) (err error) {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err := c.run(body); err != nil {
		return err
	}
	if c.memProfile == "" {
		return nil
	}
	f, err := os.Create(c.memProfile)
	if err != nil {
		return err
	}
	runtime.GC() // settle the profile on the run's final statistics
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (c *Command) run(body func() error) error {
	defer reset(harness.SetObserver(nil))
	f := c.shared
	if f == nil {
		return body()
	}
	harness.SetParallelism(f.Parallel)
	if !c.sweep {
		return body()
	}
	harness.SetConsistencyCheck(f.Check)
	if err := harness.SetFaultSpec(f.Fault); err != nil {
		return err
	}
	if f.Trace == "" && !f.Metrics {
		return body()
	}
	col := &trace.Collector{}
	harness.SetObserver(col.New)
	if err := body(); err != nil {
		return err
	}
	caps := col.Captures()
	if f.Metrics {
		if _, err := io.WriteString(c.stdout, trace.Report(caps)); err != nil {
			return err
		}
	}
	if f.Trace == "" {
		return nil
	}
	out, err := os.Create(f.Trace)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(out, caps); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// reset puts every process-wide harness setting back to its default and
// reinstalls obs as the observer.
func reset(obs harness.Observer) {
	harness.SetObserver(obs)
	harness.SetParallelism(0)
	harness.SetConsistencyCheck(false)
	_ = harness.SetFaultSpec("") // the empty spec always parses
	harness.SetPDES(0)
}
