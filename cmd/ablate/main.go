// Command ablate runs the ablation studies for the communication task's
// design choices (DESIGN.md §4b/4c): SIF prefetch streaming, the
// write-combining flush granularity, the vDMA burst and slot sizes, the
// small-message direct-transfer threshold, and topology-aware placement.
package main

import (
	"fmt"
	"io"
	"os"

	"vscc/internal/cli"
	"vscc/internal/harness"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("ablate", stdout, stderr)
	size := c.Int("size", 65536, "message size for throughput ablations [B]")
	reps := c.Int("reps", 3, "round trips per measurement")
	c.Sweep()
	return c.Run(args, func() error { return ablate(stdout, *size, *reps) })
}

func ablate(w io.Writer, size, reps int) error {
	if err := ablateTransfers(w, size, reps); err != nil {
		return err
	}
	return ablateBT(w)
}

// ablateTransfers prints every ablation before the BT table.
func ablateTransfers(w io.Writer, size, reps int) error {
	fmt.Fprintln(w, "== ablation: SIF prefetch streaming (LP/RG + cache) ==")
	on, off, err := harness.AblateSIFStreaming(size, reps)
	if err != nil {
		return err
	}
	fmt.Fprint(w, stats.Table([][]string{
		{"configuration", "MB/s"},
		{"streaming (prefetch to the reader's SIF)", fmt.Sprintf("%.2f", on)},
		{"no streaming (every read round-trips)", fmt.Sprintf("%.2f", off)},
	}))
	fmt.Fprintf(w, "-> the stream is worth %.1fx\n\n", on/off)

	sweeps := []struct {
		title, label string
		keys         []int
		measure      func(size, reps int, keys []int) (map[int]float64, error)
	}{
		{"write-combining flush granularity (RP + WCB)", "flush threshold [B]", []int{64, 256, 1024, 4096}, harness.AblateWCBFlush},
		{"host DMA burst size (LP/LG + vDMA)", "burst [B]", []int{128, 256, 1024, 3424}, harness.AblateDMABurst},
		{"vDMA double-buffer slot size", "slot [B]", []int{512, 1024, 2048, 3424}, harness.AblateVDMASlot},
	}
	for _, sw := range sweeps {
		fmt.Fprintf(w, "== ablation: %s ==\n", sw.title)
		res, err := sw.measure(size, reps, sw.keys)
		if err != nil {
			return err
		}
		rows := [][]string{{sw.label, "MB/s"}}
		for _, k := range sw.keys {
			rows = append(rows, []string{fmt.Sprint(k), fmt.Sprintf("%.2f", res[k])})
		}
		fmt.Fprint(w, stats.Table(rows))
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "== ablation: small-message direct threshold (64 B, vDMA scheme) ==")
	direct, engaged, err := harness.AblateDirectThreshold(vscc.SchemeVDMA, 64, reps)
	if err != nil {
		return err
	}
	fmt.Fprint(w, stats.Table([][]string{
		{"path", "cycles/message"},
		{"direct transfer (below threshold)", fmt.Sprint(direct)},
		{"vDMA engaged", fmt.Sprint(engaged)},
	}))
	fmt.Fprintf(w, "-> the threshold saves %.1f%% latency on 64 B messages (paper §3.3: 32-128 B)\n\n",
		100*(1-float64(direct)/float64(engaged)))
	return nil
}

// ablateBT prints BT's throughput on 100 ranks under every scheme.
func ablateBT(w io.Writer) error {
	fmt.Fprintln(w, "== ablation: BT 100 ranks under every scheme (1 iteration, class C) ==")
	schemes := []vscc.Scheme{vscc.SchemeRouting, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA}
	bt, err := harness.AblateBTScheme(100, 1, schemes)
	if err != nil {
		return err
	}
	rows := [][]string{{"scheme", "GFLOP/s"}}
	for _, s := range schemes {
		rows = append(rows, []string{s.String(), fmt.Sprintf("%.3f", bt[s])})
	}
	fmt.Fprint(w, stats.Table(rows))
	return nil
}
