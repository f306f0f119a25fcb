package main

import (
	"fmt"
	"io"

	"vscc/internal/noc"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

// printInfo inspects the five-device vSCC: the (x, y, z) topology of
// Fig. 3, the latency landscape (on-chip vs inter-device, the ~120x
// factor of §5), the stability rules of §2.3 and each scheme's
// small-message threshold (§3.3).
func printInfo(w io.Writer) error {
	const devices = 5
	sys, err := vscc.NewSystem(sim.NewKernel(), vscc.Config{Devices: devices, Scheme: vscc.SchemeVDMA})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== vSCC: %d devices, %d cores ==\n\n", devices, sys.TotalCores())
	fmt.Fprintln(w, "topology (Fig. 3): (x, y) = tile mesh position, z = device; the")
	fmt.Fprintln(w, "single physical off-chip link sits at tile (3,0) of every device.")
	fmt.Fprintln(w)

	places, err := rcce.LinearPlaces(sys.Chips, sys.TotalCores())
	if err != nil {
		return err
	}
	rows := [][]string{{"rank", "device (z)", "core", "tile (x,y)"}}
	for _, rank := range []int{0, 1, 47, 48, 95, 96, 144, 192, 239} {
		pl := places[rank]
		x, y, z := vscc.Coord(pl)
		rows = append(rows, []string{
			fmt.Sprint(rank), fmt.Sprint(z), fmt.Sprint(pl.Core), fmt.Sprintf("(%d,%d)", x, y),
		})
	}
	fmt.Fprint(w, stats.Table(rows))
	fmt.Fprintln(w)

	mesh := sys.MeshOf(0)
	onChipNear := mesh.TransferLatency(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}, 32)
	onChipFar := mesh.TransferLatency(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 5, Y: 3}, 32)
	rt := sys.Fabric.RoundTrip()
	fmt.Fprintln(w, "latency landscape (core cycles @ 533 MHz):")
	fmt.Fprint(w, stats.Table([][]string{
		{"path", "cycles", "class"},
		{"on-chip, 1 hop (32 B)", fmt.Sprint(onChipNear), "~10^2 (paper §3)"},
		{"on-chip, cross mesh (32 B)", fmt.Sprint(onChipFar), "~10^2"},
		{"inter-device round trip", fmt.Sprint(rt), "~10^4 (paper §3)"},
		{"virtual-extension factor", fmt.Sprintf("%.0fx", float64(rt)/100), "paper §5: ~120x"},
	}))
	fmt.Fprintln(w)

	fmt.Fprintln(w, "stability rules (§2.3):")
	for _, n := range []int{2, 3, 5} {
		status := "OK"
		if _, err := pcie.New(n, pcie.DefaultParams(), pcie.AckFPGA); err != nil {
			status = "rejected: " + err.Error()
		}
		fmt.Fprintf(w, "  %d devices with FPGA fast write-acks: %s\n", n, status)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "communication schemes and their small-message thresholds (§3.3):")
	for _, s := range []vscc.Scheme{vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel} {
		fmt.Fprintf(w, "  %-34s direct-transfer threshold: %3d B\n", s, s.DirectThreshold())
	}
	return nil
}
