// Command pingpong regenerates the paper's Figure 6: point-to-point
// ping-pong throughput on-chip (RCCE vs iRCCE pipelined, Fig. 6a) and
// across devices under every vSCC communication scheme (Fig. 6b), plus
// the headline claims table, the Fig. 2 protocol timelines and the
// vSCC configuration summary.
//
// Usage:
//
//	pingpong -onchip          # Fig. 6a series
//	pingpong -interdevice     # Fig. 6b series
//	pingpong -claims          # paper-vs-measured claims (E5-E9)
//	pingpong -timeline        # Fig. 2 blocking vs pipelined timelines
//	pingpong -info            # topology, latency landscape, stability rules
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vscc/internal/cli"
	"vscc/internal/harness"
	"vscc/internal/ircce"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/stats"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("pingpong", stdout, stderr)
	onchip := c.Bool("onchip", false, "measure Fig. 6a (on-chip RCCE vs iRCCE)")
	inter := c.Bool("interdevice", false, "measure Fig. 6b (inter-device schemes)")
	claims := c.Bool("claims", false, "print the paper-vs-measured claims table")
	timeline := c.Bool("timeline", false, "render Fig. 2 style protocol timelines")
	info := c.Bool("info", false, "print the five-device vSCC's topology (Fig. 3), latency landscape (§5) and stability rules (§2.3)")
	reps := c.Int("reps", 3, "round trips per measurement")
	sizesFlag := c.String("sizes", "", "comma-separated message sizes [B] (default: the Fig. 6 sweep)")
	c.Sweep()
	return c.Run(args, func() error {
		if !*onchip && !*inter && !*claims && !*timeline && !*info {
			*onchip, *inter = true, true
		}
		sizes := harness.Sizes6()
		if *sizesFlag != "" {
			sizes = nil
			for _, s := range strings.Split(*sizesFlag, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return err
				}
				sizes = append(sizes, n)
			}
		}
		if *onchip {
			if err := onChip(stdout, sizes, *reps); err != nil {
				return err
			}
		}
		if *inter {
			if err := interDevice(stdout, sizes, *reps); err != nil {
				return err
			}
		}
		if *claims {
			cl, err := harness.MeasureClaims(*reps)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "== headline claims (DESIGN.md E5-E9) ==")
			fmt.Fprint(stdout, cl.Report())
			fmt.Fprintln(stdout)
		}
		if *timeline {
			fmt.Fprintln(stdout, "== Fig. 2: blocking vs pipelined protocol timelines (64 kB on-chip transfer) ==")
			if err := timelineOf(stdout, "RCCE blocking (local put / remote get)", nil); err != nil {
				return err
			}
			if err := timelineOf(stdout, "iRCCE pipelined", &ircce.PipelinedProtocol{}); err != nil {
				return err
			}
		}
		if *info {
			return printInfo(stdout)
		}
		return nil
	})
}

func onChip(w io.Writer, sizes []int, reps int) error {
	rccePts, err := harness.OnChipPingPong(nil, 0, 1, sizes, reps)
	if err != nil {
		return err
	}
	irccePts, err := harness.OnChipPingPong(func() rcce.Protocol { return &ircce.PipelinedProtocol{} }, 0, 1, sizes, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Fig. 6a: on-chip ping-pong throughput ==")
	rows := [][]string{{"size [B]", "RCCE [MB/s]", "iRCCE pipelined [MB/s]"}}
	for i := range rccePts {
		rows = append(rows, []string{
			fmt.Sprint(rccePts[i].Size),
			fmt.Sprintf("%.2f", rccePts[i].MBps),
			fmt.Sprintf("%.2f", irccePts[i].MBps),
		})
	}
	fmt.Fprint(w, stats.Table(rows))
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.RenderSeries("on-chip throughput", "message size [B]", "MB/s",
		[]stats.Series{harness.ToSeries("RCCE", rccePts), harness.ToSeries("iRCCE pipelined", irccePts)}, 64, 14))
	fmt.Fprintln(w)
	return nil
}

func interDevice(w io.Writer, sizes []int, reps int) error {
	fmt.Fprintln(w, "== Fig. 6b: inter-device ping-pong throughput ==")
	schemes := []vscc.Scheme{
		vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet,
		vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel,
	}
	var series []stats.Series
	rows := [][]string{{"size [B]"}}
	all := make(map[vscc.Scheme][]harness.PingPongPoint)
	for _, s := range schemes {
		rows[0] = append(rows[0], s.String())
		pts, err := harness.InterDevicePingPong(s, sizes, reps)
		if err != nil {
			return err
		}
		all[s] = pts
		series = append(series, harness.ToSeries(s.String(), pts))
	}
	for i, size := range sizes {
		row := []string{fmt.Sprint(size)}
		for _, s := range schemes {
			row = append(row, fmt.Sprintf("%.2f", all[s][i].MBps))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, stats.Table(rows))
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.RenderSeries("inter-device throughput", "message size [B]", "MB/s", series, 64, 14))
	fmt.Fprintln(w)
	return nil
}

// timelineOf runs one 64 kB transfer under proto (nil: blocking RCCE)
// and prints the recorded spans under title.
func timelineOf(w io.Writer, title string, proto rcce.Protocol) error {
	k := sim.NewKernel()
	chip := harness.ApplyCheck(scc.NewChip(k, 0, scc.DefaultParams()))
	places, err := rcce.LinearPlaces([]*scc.Chip{chip}, 2)
	if err != nil {
		return err
	}
	tl := trace.NewSink(k)
	opts := []rcce.Option{rcce.WithTimeline(tl)}
	if proto != nil {
		opts = append(opts, rcce.WithProtocol(proto))
	}
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places, opts...)
	if err != nil {
		return err
	}
	msg := make([]byte, 64*1024)
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(1, msg)
		} else {
			r.Recv(0, make([]byte, len(msg)))
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "-- %s:\n%s", title, tl.Timeline(96))
	return nil
}
