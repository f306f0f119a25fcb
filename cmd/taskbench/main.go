// Command taskbench runs the task-dataflow runtime's workloads
// (internal/taskrt) across the communication schemes: blocked Cholesky,
// a Jacobi stencil with halo exchange, and a key-value request/response
// service, each as a sweep of independent replicas. The output — one
// deterministic line per replica, with scheduler totals, per-class
// argument-movement counts, the end cycle and the region-state hash —
// byte-compares across reruns and -parallel settings; the CI
// taskrt-identity job holds that bar, with and without a scheduled
// device crash.
//
// With -graph FILE the workload is a task-spec document instead (see
// the grammar in internal/taskrt/spec.go).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"vscc/internal/cli"
	"vscc/internal/harness"
	"vscc/internal/taskrt"
	"vscc/internal/vscc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("taskbench", stdout, stderr)
	workload := c.String("workload", "all", "workload: cholesky, stencil, kv, or all")
	schemes := c.String("schemes", "all", "comma-separated scheme keys (host-routed, cached-get, remote-put, vdma, ...) or all")
	devices := c.Int("devices", 2, "SCC devices")
	ranks := c.Int("ranks", 4, "worker ranks, spread round-robin across devices")
	size := c.Int("size", 4, "decomposition: Cholesky tile grid, stencil strips, kv shards")
	iters := c.Int("iters", 8, "stencil sweeps / kv requests")
	replicas := c.Int("replicas", 1, "independent replicas per (workload, scheme) point")
	graph := c.String("graph", "", "run a task-spec file instead of a named workload")
	c.Sweep()
	return c.Run(args, func() error {
		if *graph != "" {
			return runGraph(stdout, *graph, *ranks)
		}
		workloads := taskrt.Workloads()
		if *workload != "all" {
			workloads = []string{*workload}
		}
		schemeList := []vscc.Scheme{
			vscc.SchemeHostRouted, vscc.SchemeHWAccel, vscc.SchemeCachedGet,
			vscc.SchemeRemotePut, vscc.SchemeVDMA,
		}
		if *schemes != "all" {
			schemeList = nil
			for _, key := range strings.Split(*schemes, ",") {
				s, ok := vscc.SchemeByKey(strings.TrimSpace(key))
				if !ok {
					return fmt.Errorf("unknown scheme %q", key)
				}
				schemeList = append(schemeList, s)
			}
		}
		for _, wl := range workloads {
			for _, scheme := range schemeList {
				dev := *devices
				if scheme == vscc.SchemeHWAccel && dev > 2 {
					dev = 2 // the FPGA scheme is unstable beyond 2 devices (§2.3)
				}
				pts, err := harness.TaskrtSweep(harness.TaskrtConfig{
					Workload: wl, Scheme: scheme, Devices: dev, Ranks: *ranks,
					Size: *size, Iters: *iters, Replicas: *replicas,
				})
				if err != nil {
					return err
				}
				for _, pt := range pts {
					fmt.Fprintln(stdout, pt)
				}
			}
		}
		return nil
	})
}

// runGraph builds the graph of one task-spec file for ranks workers,
// executes it serially — the reference order, no simulated system — and
// prints its region and task counts and the resulting state hash.
func runGraph(w io.Writer, path string, ranks int) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := taskrt.ParseSpec(string(src))
	if err != nil {
		return err
	}
	ref := taskrt.New(taskrt.Config{})
	if err := sp.Build(ref, ranks); err != nil {
		return err
	}
	if err := ref.RunSerial(ranks); err != nil {
		return err
	}
	fmt.Fprintf(w, "graph %s: %d regions, %d tasks, serial hash=%s\n",
		path, ref.NumRegions(), ref.NumTasks(), ref.StateHash())
	return nil
}
