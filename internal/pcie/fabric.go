// Package pcie models the off-chip fabric of the vSCC research system:
// for every SCC device a pair of unidirectional PCIe paths to the host
// (device-to-host and host-to-device), the system interface (SIF) port at
// mesh tile (3,0) that every off-chip request funnels through, and the
// acknowledgement behaviour of off-chip writes.
//
// Write acknowledgement is the crux of the paper's §2.3: a P54C core
// stalls an uncached off-chip store until the mesh delivers a write
// acknowledge. The on-board FPGA can generate "automatic write
// acknowledges for requests that target off-chip memory" — fast but with
// known stability issues that prevent tightly coupling three or more
// devices. Without it, the acknowledge comes from the host communication
// task (one PCIe round trip) or, for fully transparent routing, from the
// remote device (two round trips). The three modes bound Fig. 6b from
// above and below.
package pcie

import (
	"errors"
	"fmt"

	"vscc/internal/noc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// AckMode selects who acknowledges an off-chip write.
type AckMode int

const (
	// AckHost: the host communication task acknowledges on receipt (one
	// PCIe round trip). The stable default of the new prototype.
	AckHost AckMode = iota
	// AckFPGA: the on-board FPGA acknowledges immediately (fast writes,
	// hardware-accelerated upper bound; unstable for >= 3 devices).
	AckFPGA
	// AckRemote: transparent routing — the acknowledge travels from the
	// remote device back through the host (two PCIe round trips; the
	// previous prototype of [Reble et al. 2012]).
	AckRemote
)

// String names the mode.
func (m AckMode) String() string {
	switch m {
	case AckHost:
		return "host-ack"
	case AckFPGA:
		return "fpga-fast-ack"
	case AckRemote:
		return "remote-ack"
	}
	return "invalid"
}

// Params is the fabric timing model, in core cycles of the 533 MHz cores.
// Defaults are calibrated so that the full inter-device path (device ->
// host -> device) costs ~1.2e4 cycles, the paper's factor of ~120 over
// the ~100-cycle on-chip path (§5: "raises latencies by a factor of 120").
type Params struct {
	// LinkLatency is the one-way PCIe + driver latency per direction.
	LinkLatency sim.Cycles
	// LinkBytesPerCycle is the usable PCIe bandwidth per direction.
	LinkBytesPerCycle float64
	// SIFAckCycles is the FPGA fast-ack stall (AckFPGA) and the local
	// cost of entering the SIF.
	SIFAckCycles sim.Cycles
	// HostOpCycles is the communication-task processing cost per request.
	HostOpCycles sim.Cycles
	// DMASetupCycles is the host DMA engine programming cost per burst.
	DMASetupCycles sim.Cycles
}

// DefaultParams returns the calibrated fabric timing.
func DefaultParams() Params {
	return Params{
		LinkLatency:       5200,
		LinkBytesPerCycle: 0.135,
		SIFAckCycles:      120,
		HostOpCycles:      160,
		DMASetupCycles:    400,
	}
}

// DeviceLink is one device's connection to the host.
type DeviceLink struct {
	// D2H carries traffic from the device to the host; H2D the reverse.
	D2H, H2D *noc.Link
}

// Fabric is the set of PCIe connections of one vSCC host.
type Fabric struct {
	Params Params
	Ack    AckMode
	links  []*DeviceLink
	// chans wrap each link with the SIF replay layer (packet.go); they
	// pass through untouched until SetFaults arms them.
	chans []*channelPair
}

// channelPair is the replay layer over one device's link pair.
type channelPair struct {
	d2h, h2d *Channel
}

// New builds a fabric for n devices in the given acknowledgement mode.
// It enforces the paper's stability rule: the FPGA fast-ack option works
// only for at most two tightly coupled devices.
func New(n int, params Params, ack AckMode) (*Fabric, error) {
	if n <= 0 {
		return nil, errors.New("pcie: fabric with no devices")
	}
	if ack == AckFPGA && n > 2 {
		return nil, fmt.Errorf("pcie: FPGA fast write-acks are unstable for %d devices (max 2); see §2.3", n)
	}
	f := &Fabric{Params: params, Ack: ack}
	for d := 0; d < n; d++ {
		dl := &DeviceLink{
			D2H: noc.NewLink(fmt.Sprintf("pcie.d%d.d2h", d), params.LinkLatency, params.LinkBytesPerCycle),
			H2D: noc.NewLink(fmt.Sprintf("pcie.d%d.h2d", d), params.LinkLatency, params.LinkBytesPerCycle),
		}
		f.links = append(f.links, dl)
		f.chans = append(f.chans, &channelPair{
			d2h: newChannel(dl.D2H, "pcie.d2h", d),
			h2d: newChannel(dl.H2D, "pcie.h2d", d),
		})
	}
	return f, nil
}

// Instrument attaches an observability sink to every PCIe link, so each
// direction of each device's connection gets its own occupancy track and
// byte counter in the trace.
func (f *Fabric) Instrument(s *trace.Sink) {
	for _, dl := range f.links {
		dl.D2H.Instrument(s)
		dl.H2D.Instrument(s)
	}
}

// NumDevices returns the number of connected devices.
func (f *Fabric) NumDevices() int { return len(f.links) }

// Link returns device d's link pair.
func (f *Fabric) Link(d int) *DeviceLink { return f.links[d] }

// RoundTrip returns the no-load device->host->device latency for a small
// request — the paper's ~1.2e4-cycle class.
func (f *Fabric) RoundTrip() sim.Cycles {
	return 2*f.Params.LinkLatency + f.Params.HostOpCycles
}
