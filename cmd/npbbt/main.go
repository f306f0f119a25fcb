// Command npbbt regenerates the paper's Figure 7: NPB BT scalability on
// the vSCC, comparing the optimal (local put/local get + vDMA) and worst
// (transparent routing) inter-device configurations over square process
// counts up to 225 on five devices.
//
// Absolute runs of class C use the solver's timing mode (real message
// sizes and pattern, modelled arithmetic); small classes run with real
// numerics — see DESIGN.md.
//
// With -traffic RANKS it regenerates Figure 8 instead: the BT
// communication traffic matrix of one RANKS-rank session (the paper's is
// 64 ranks of class C), with inter-device blocks marked and the
// heaviest pair reported — "the maximum communication traffic between
// two ranks is about 186 MB". Volumes are scaled to the class's
// iteration count; -csv prints the matrix as CSV.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vscc/internal/cli"
	"vscc/internal/harness"
	"vscc/internal/npb"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("npbbt", stdout, stderr)
	app := c.String("app", "bt", "pseudo-application: bt (paper's Fig. 7) or lu (extension)")
	className := c.String("class", "C", "NPB class (S, W, A, B, C)")
	iters := c.Int("iters", 2, "timesteps per run (per-iteration rate is steady)")
	maxRanks := c.Int("maxranks", 225, "largest square process count")
	countsFlag := c.String("counts", "", "comma-separated rank counts (default: all squares up to -maxranks)")
	best := c.Bool("best", true, "run the optimal configuration (vDMA)")
	worst := c.Bool("worst", true, "run the worst configuration (transparent routing)")
	pdes := c.Int("pdes", 0, "run each point on the domain-decomposed engine with N workers (0 = classic single kernel; 1 = serial PDES identity reference)")
	traffic := c.Int("traffic", 0, "capture the Fig. 8 BT traffic matrix of a session this many ranks large (square number, classic engine) instead of the Fig. 7 sweep (0 = off)")
	csv := c.Bool("csv", false, "with -traffic, print the matrix as CSV instead of the shaded rendering")
	c.Sweep()
	return c.Run(args, func() error {
		class, err := npb.ClassByName(*className)
		if err != nil {
			return err
		}
		if *traffic > 0 {
			return trafficMatrix(stdout, class, *traffic, *iters, *csv)
		}
		harness.SetPDES(*pdes)
		counts := npb.SquareCounts(*maxRanks)
		if *countsFlag != "" {
			counts = nil
			for _, s := range strings.Split(*countsFlag, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return err
				}
				counts = append(counts, n)
			}
		}
		return scalability(stdout, *app, class, *iters, counts, *best, *worst)
	})
}

// scalability runs the Fig. 7 sweep and prints each point, the table and
// the plot.
func scalability(w io.Writer, app string, class npb.Class, iters int, counts []int, best, worst bool) error {
	runSweep := harness.BTSweep
	if app == "lu" {
		runSweep = harness.LUSweep
	} else if app != "bt" {
		return fmt.Errorf("unknown app %q", app)
	}
	fmt.Fprintf(w, "== Fig. 7: NPB %s class %s (%d^3), %d iterations per run ==\n",
		strings.ToUpper(app), class.Name, class.N, iters)
	fmt.Fprintf(w, "theoretical peak: %.1f GFLOP/s at 225 cores x 533 MFLOP/s\n\n", 225*0.533)

	type sweep struct {
		name   string
		scheme vscc.Scheme
		pts    []harness.BTPoint
	}
	var sweeps []*sweep
	if best {
		sweeps = append(sweeps, &sweep{name: "optimal (LP/LG vDMA)", scheme: vscc.SchemeVDMA})
	}
	if worst {
		sweeps = append(sweeps, &sweep{name: "worst (transparent routing)", scheme: vscc.SchemeRouting})
	}
	var series []stats.Series
	rows := [][]string{{"ranks"}}
	for _, sw := range sweeps {
		rows[0] = append(rows[0], sw.name+" [GFLOP/s]")
		pts, err := runSweep(harness.BTSweepConfig{
			Class: class, Iterations: iters, Scheme: sw.scheme, Devices: 5,
		}, counts)
		if err != nil {
			return err
		}
		sw.pts = pts
		s := stats.Series{Name: sw.name}
		for _, pt := range pts {
			fmt.Fprintf(w, "  %-28s ranks=%3d  %7.3f GFLOP/s\n", sw.name, pt.Ranks, pt.GFlops)
			s.Add(float64(pt.Ranks), pt.GFlops)
		}
		series = append(series, s)
	}
	fmt.Fprintln(w)
	for i, ranks := range counts {
		row := []string{fmt.Sprint(ranks)}
		for _, sw := range sweeps {
			row = append(row, fmt.Sprintf("%.3f", sw.pts[i].GFlops))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, stats.Table(rows))
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.RenderSeries("NPB "+strings.ToUpper(app)+" scalability", "processes", "GFLOP/s", series, 64, 14))
	return nil
}

// trafficMatrix captures and prints the Fig. 8 matrix of one BT session
// under the vDMA scheme.
func trafficMatrix(w io.Writer, class npb.Class, ranks, iters int, csv bool) error {
	m, err := harness.CaptureTraffic(harness.TrafficConfig{
		Class: class, Ranks: ranks, Iterations: iters, Scheme: vscc.SchemeVDMA,
	})
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprint(w, m.CSV())
		return nil
	}
	fmt.Fprintf(w, "== Fig. 8: NPB BT class %s traffic, %d ranks ==\n", class.Name, ranks)
	fmt.Fprint(w, m.Render())
	src, dest, bytes := m.MaxPair()
	fmt.Fprintf(w, "\nmax pair: rank %d -> rank %d, %.1f MB (paper: ~186 MB for 64 ranks / class C / 200 iters)\n",
		src, dest, float64(bytes)/1e6)
	fmt.Fprintf(w, "traffic within rank distance 9: %.1f %% (neighbour/ring pattern)\n", 100*m.NeighborFraction(9))
	fmt.Fprintf(w, "inter-device share: %.1f %%\n", 100*float64(m.InterDeviceBytes())/float64(m.Total()))
	return nil
}
