// Package vscc implements the paper's contribution: a system of
// cluster-on-a-chip processors. It couples multiple simulated SCC devices
// through the PCIe fabric and the host communication task into one
// virtual 240-core processor, extends the RCCE rank space linearly across
// devices, and provides the host-accelerated inter-device communication
// schemes of §3.3:
//
//   - SchemeRouting:    transparent packet routing (previous prototype)
//   - SchemeHostRouted: host-acknowledged default protocol (lower bound)
//   - SchemeHWAccel:    remote put with FPGA fast write-acks (upper
//     bound; at most two devices)
//   - SchemeCachedGet:  local put / remote get with the host software
//     cache and prefetch streaming (Fig. 4b)
//   - SchemeRemotePut:  remote put into the host write-combining buffer
//     (Fig. 4c)
//   - SchemeVDMA:       local put / local get through the virtual DMA
//     controller (Fig. 4a/5), pipelined across MPB halves
package vscc

import (
	"fmt"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/noc"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Config describes a vSCC system.
type Config struct {
	// Devices is the number of coupled SCC boards (the paper's flagship
	// system has five: 240 cores).
	Devices int
	// Scheme is the inter-device communication scheme.
	Scheme Scheme
	// DirectThreshold overrides the scheme default when non-zero.
	DirectThreshold int
	// VDMASlotBytes overrides the vDMA double-buffer slot size (ablation
	// knob; 0 = half the MPB payload area). Must not exceed half the
	// payload area.
	VDMASlotBytes int

	// Check enables the runtime MPB consistency checker (scc.Checker): a
	// shared staleness oracle across all devices that panics the reading
	// rank when a protocol serves a stale cached line or reads past
	// unflushed write-combined stores.
	Check bool

	// Faults arms deterministic fault injection across the PCIe, host and
	// protocol layers (see internal/fault). Nil runs fault-free along the
	// exact same code paths.
	Faults *fault.Config

	// HostParams overrides the communication task's timing model (the
	// host ablations); nil means host.DefaultParams.
	HostParams *host.Params
}

// System is a running vSCC: the chips, the fabric, and the communication
// task, ready to host RCCE sessions.
type System struct {
	Kernel *sim.Kernel
	Config Config
	Chips  []*scc.Chip
	Fabric *pcie.Fabric
	Task   *host.Task
	// Injector is the armed fault injector; nil when Config.Faults is nil.
	Injector *fault.Injector
	// Membership is the device-level membership manager; nil unless the
	// fault schedule contains device crash or link-down faults.
	Membership *Membership
}

// resolve validates the system shape and fills in the timing-model
// defaults; both engines build from its result.
func (cfg Config) resolve() (chip scc.Params, fabric pcie.Params, hostTask host.Params, err error) {
	if cfg.Devices <= 0 {
		return chip, fabric, hostTask, fmt.Errorf("vscc: %d devices", cfg.Devices)
	}
	if cfg.Scheme == SchemeHWAccel && cfg.Devices > 2 {
		return chip, fabric, hostTask, fmt.Errorf("vscc: the hardware-accelerated scheme is unstable beyond 2 devices (§2.3); got %d", cfg.Devices)
	}
	if err := cfg.Faults.CheckDevices(cfg.Devices); err != nil {
		return chip, fabric, hostTask, err
	}
	chip, fabric, hostTask = scc.DefaultParams(), pcie.DefaultParams(), host.DefaultParams()
	if cfg.HostParams != nil {
		hostTask = *cfg.HostParams
	}
	return chip, fabric, hostTask, nil
}

// NewSystem assembles a vSCC.
func NewSystem(k *sim.Kernel, cfg Config) (*System, error) {
	chipParams, fabricParams, hostParams, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	var chips []*scc.Chip
	var checker *scc.Checker
	if cfg.Check {
		checker = scc.NewChecker()
	}
	for d := 0; d < cfg.Devices; d++ {
		chip := scc.NewChip(k, d, chipParams)
		if checker != nil {
			chip.EnableConsistencyCheck(checker)
		}
		chips = append(chips, chip)
	}
	fabric, err := pcie.New(cfg.Devices, fabricParams, cfg.Scheme.ackMode())
	if err != nil {
		return nil, err
	}
	task, err := host.New(k, fabric, chips, hostParams)
	if err != nil {
		return nil, err
	}
	sys := &System{Kernel: k, Config: cfg, Chips: chips, Fabric: fabric, Task: task}
	if cfg.Faults != nil {
		inj := fault.NewInjector(k, *cfg.Faults)
		fabric.SetFaults(k, inj)
		task.SetFaults(inj)
		for d, chip := range chips {
			// Remote MPB flag writes (flag-sized host stores) can vanish;
			// the host's write-verify path recovers them.
			chip.SetHostWriteDropper(func(tile, off, n int) bool {
				return n <= 4 && inj.Inject(fault.FlagLoss, d)
			})
		}
		sys.Injector = inj
		if cfg.Faults.DeviceFaultsArmed() {
			// Device-level crash recovery: epochs, checkpoints and
			// drain/replay failover (membership.go). Requires the framed
			// fabric, so it only exists alongside the injector.
			sys.Membership = newMembership(k, chips, fabric, task, inj)
		}
	}
	return sys, nil
}

// Instrument attaches an observability sink to the whole system: every
// PCIe link and the communication task record into it. Sessions pick the
// sink up separately through rcce.WithSink. A nil sink disables.
func (s *System) Instrument(sink *trace.Sink) {
	s.Fabric.Instrument(sink)
	s.Task.Instrument(sink)
	s.Injector.Instrument(sink)
	s.Membership.Instrument(sink)
}

// TotalCores returns the number of cores across all devices.
func (s *System) TotalCores() int { return len(s.Chips) * scc.NumCores }

// Coord returns a rank placement's (x, y, z) coordinate in the vSCC
// topology (Fig. 3): tile mesh position plus the device number as z.
func Coord(pl rcce.Place) (x, y, z int) {
	c := scc.CoreCoord(pl.Core)
	return c.X, c.Y, pl.Dev
}

// NewSession creates an RCCE session of n ranks mapped linearly across
// the devices (§3: device 0 first, device 1 starting at rank 48, ...),
// registers every rank's payload and flag regions with the communication
// task, and installs the scheme's wire protocol.
func (s *System) NewSession(n int, opts ...rcce.Option) (*rcce.Session, error) {
	places, err := rcce.LinearPlaces(s.Chips, n)
	if err != nil {
		return nil, err
	}
	return s.NewSessionAt(places, opts...)
}

// NewSessionAt is NewSession with explicit placements.
func (s *System) NewSessionAt(places []rcce.Place, opts ...rcce.Option) (*rcce.Session, error) {
	return s.newSessionAt(places, s.Config.Scheme, opts...)
}

// NewTenantSession builds a session running a per-tenant scheme on the
// shared fabric. The fabric's write-acknowledge mode is a global
// hardware property, so only schemes of the system's ack family are
// admissible: a host-ack fabric (the multi-tenant default) can host
// host-routed, cached-get, remote-put and vDMA tenants side by side,
// but not transparent routing or the FPGA fast-ack scheme.
func (s *System) NewTenantSession(places []rcce.Place, scheme Scheme, opts ...rcce.Option) (*rcce.Session, error) {
	if scheme.ackMode() != s.Fabric.Ack {
		return nil, fmt.Errorf("vscc: scheme %s needs ack mode %s, fabric runs %s",
			scheme.Key(), scheme.ackMode(), s.Fabric.Ack)
	}
	return s.newSessionAt(places, scheme, opts...)
}

func (s *System) newSessionAt(places []rcce.Place, scheme Scheme, opts ...rcce.Option) (*rcce.Session, error) {
	proto, err := s.Config.newProtocol(scheme, len(places))
	if err != nil {
		return nil, err
	}
	proto.faults, proto.rec, proto.mem = s.Injector, s.Injector.Recovery(), s.Membership
	session, err := newSession(s.Kernel, s.Chips, places, proto, opts)
	if err != nil {
		return nil, err
	}
	if err := s.registerRegions(places, scheme.regionMode()); err != nil {
		return nil, err
	}
	return session, nil
}

// newSession builds the RCCE session of either engine: the placements on
// kernel k running proto, with the LUT mappings of remote on-chip memory
// installed for every placed core — the paper's §2.1
// hardware-abstraction-layer extension. The mappings are idempotent and
// identical for every session.
func newSession(k *sim.Kernel, chips []*scc.Chip, places []rcce.Place, proto *interDeviceProtocol, opts []rcce.Option) (*rcce.Session, error) {
	opts = append([]rcce.Option{rcce.WithProtocol(proto)}, opts...)
	session, err := rcce.NewSession(k, chips, places, opts...)
	if err != nil {
		return nil, err
	}
	for _, pl := range places {
		lut := chips[pl.Dev].Cores[pl.Core].LUT
		for d := range chips {
			if d == pl.Dev {
				continue
			}
			if err := lut.MapRemoteDevice(d); err != nil {
				return nil, err
			}
		}
	}
	return session, nil
}

// ReleaseRegions tears down the host-task registration of a session's
// placements — the payload and flag regions of every rank — so a later
// tenant can reuse the cores with a different scheme. LUT mappings are
// left installed (they are idempotent and identical for every tenant).
func (s *System) ReleaseRegions(places []rcce.Place) {
	for _, pl := range places {
		tile := scc.CoreTile(pl.Core)
		base := scc.CoreLMBOffset(pl.Core)
		s.Task.UnregisterAt(pl.Dev, tile, base)
		s.Task.UnregisterAt(pl.Dev, tile, base+rcce.PayloadBytes)
	}
}

// registerRegions performs the boot-time registration of every rank's
// communication buffer and flag area with the communication task.
func (s *System) registerRegions(places []rcce.Place, mode host.Mode) error {
	for _, pl := range places {
		tile := scc.CoreTile(pl.Core)
		base := scc.CoreLMBOffset(pl.Core)
		data := &host.Region{
			Dev: pl.Dev, Tile: tile, Off: base, Len: rcce.PayloadBytes,
			Kind: host.KindData, Mode: mode, Owner: pl.Core,
		}
		flags := &host.Region{
			Dev: pl.Dev, Tile: tile, Off: base + rcce.PayloadBytes,
			Len:  mem.CoreLMBSize - rcce.PayloadBytes,
			Kind: host.KindFlag, Mode: host.ModeTransparent, Owner: pl.Core,
		}
		for _, region := range []*host.Region{data, flags} {
			if err := s.Task.Register(region); err != nil {
				return err
			}
		}
	}
	return nil
}

// MeshOf returns the on-chip mesh of a device, for latency inspection
// tools.
func (s *System) MeshOf(dev int) *noc.Mesh { return s.Chips[dev].Mesh }
