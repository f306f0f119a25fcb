package vscc

// Conservative PDES decomposition of a vSCC (DESIGN.md §9): one
// sim.Kernel per SCC device plus one kernel for the host/PCIe side,
// coupled by sim.PDES barrier windows with lookahead equal to the PCIe
// link latency. Each device's mesh, MPB state, L1/WCB models and rcce
// ranks stay kernel-local; the only cross-kernel traffic is the PCIe
// fabric boundary, re-implemented here as explicit request/response
// messages booked on the classic fabric's per-direction links.
//
// The classic single-kernel engine (System) couples devices through
// shared structures with zero-latency effects — host.Task delivery
// invalidates the host caches and every device's SIF buffers at the
// same instant, and scc.Checker is a cross-device oracle — so the PDES
// engine cannot be cycle-identical to it. The determinism bar is
// instead self-identity: a PDES run with W workers is byte-identical
// (traces, ledgers, checkpoints) to the same PDES run with 1 worker,
// for any W. That is the property the identity gates enforce.
//
// Fault support is deliberately narrow: device-crash faults
// (DevCrashAt) with checkpoints and held-delivery replay, entirely
// device-kernel-local. Packet-level faults, host stalls/crashes and
// link-down faults need the framed single-kernel fabric and are
// rejected up front.

import (
	"errors"

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

// Request/acknowledgement sizes on the wire (one line for a read
// request, a header-sized ack).
const (
	pdesReqBytes = mem.LineSize
	pdesAckBytes = 4
)

// arrival books n bytes on l at or after now and returns the cycle they
// land on the far side. Each link of the fabric is owned by exactly one
// kernel — device-to-host by the device, host-to-device by the host — so
// reservations never cross kernels, and successive ones arrive in
// reservation order: the FIFO property every data-before-flag argument
// below rests on.
func arrival(l *noc.Link, now sim.Cycles, n int) sim.Cycles {
	return l.Reserve(now, n) + l.Latency
}

// PDESSystem is the domain-decomposed counterpart of System: the same
// Config, chips and schemes, driven by sim.PDES instead of one kernel.
type PDESSystem struct {
	PDES   *sim.PDES
	Config Config
	Chips  []*scc.Chip

	workers int
	// fabric holds the PCIe links (pcie.New, as the classic engine
	// builds them); only its links and Params are used, never its
	// framed packet layer.
	fabric *pcie.Fabric
	eng    *pdesHost
	ports  []*pdesPort
	// sinks holds one observability sink per kernel (devices 0..N-1,
	// host at N); nil entries disable recording for that kernel.
	sinks []*trace.Sink
}

// pdesUnsupportedFaults rejects fault classes that require the framed
// single-kernel fabric.
func pdesUnsupportedFaults(f *fault.Config) error {
	if f == nil {
		return nil
	}
	if f.RatesArmed() {
		return errors.New("vscc: pdes supports only device-crash faults; packet/flag/cache/mmio faults need the framed single-kernel fabric")
	}
	if len(f.StallAt) != 0 || len(f.CrashAt) != 0 {
		return errors.New("vscc: pdes supports only device-crash faults; host stall/crash faults need the single-kernel host task")
	}
	if len(f.DevLinkDownAt) != 0 {
		return errors.New("vscc: pdes supports only device-crash faults; link-down faults need the framed fabric's journals")
	}
	return nil
}

// NewPDESSystem assembles a domain-decomposed vSCC driven by `workers`
// goroutines (1 = the serial identity reference).
func NewPDESSystem(cfg Config, workers int) (*PDESSystem, error) {
	// The host-task parameters go unused: the pdes host charges the pcie
	// op costs only.
	chipParams, fabricParams, _, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Check {
		return nil, errors.New("vscc: the consistency checker is a cross-device oracle and cannot run under pdes")
	}
	if err := pdesUnsupportedFaults(cfg.Faults); err != nil {
		return nil, err
	}
	fabric, err := pcie.New(cfg.Devices, fabricParams, cfg.Scheme.ackMode())
	if err != nil {
		return nil, err
	}

	s := &PDESSystem{
		Config:  cfg,
		workers: workers,
		fabric:  fabric,
		// Kernel i simulates device i; kernel Devices the host/PCIe side.
		PDES:  sim.NewPDES(cfg.Devices+1, fabricParams.LinkLatency),
		sinks: make([]*trace.Sink, cfg.Devices+1),
	}
	s.eng = &pdesHost{
		sys:   s,
		k:     s.PDES.Kernel(cfg.Devices),
		idx:   cfg.Devices,
		banks: make([]*host.Banks, cfg.Devices),
		cache: make(map[mpbHalf]*pdesHostCopy),
	}
	for d := 0; d < cfg.Devices; d++ {
		s.eng.banks[d] = host.NewBanks()
		chip := scc.NewChip(s.PDES.Kernel(d), d, chipParams)
		pt := &pdesPort{
			devLifecycle: devLifecycle{k: s.PDES.Kernel(d), dev: d, chip: chip},
			sys:          s,
			stream:       make(map[mpbHalf]*pdesStream),
		}
		chip.OffChip = pt
		s.Chips = append(s.Chips, chip)
		s.ports = append(s.ports, pt)
	}
	if cfg.Faults != nil && len(cfg.Faults.DevCrashAt) > 0 {
		s.armDeviceFaults(*cfg.Faults)
	}
	return s, nil
}

// Instrument attaches one sink per kernel: sinks[d] for device d,
// sinks[Devices] for the host kernel. Nil entries (or a nil slice)
// disable. Per-kernel sinks are mandatory under PDES because
// trace.Sink is not concurrency-safe; each PCIe link records on its
// owner's sink (device d's D2H on sinks[d], every H2D on the host's).
func (s *PDESSystem) Instrument(sinks []*trace.Sink) {
	copy(s.sinks, sinks)
	for d, pt := range s.ports {
		pt.sink = s.sinks[d]
		link := s.fabric.Link(d)
		link.D2H.Instrument(s.sinks[d])
		link.H2D.Instrument(s.sinks[s.hostIdx()])
	}
}

// hostIdx returns the host kernel's index.
func (s *PDESSystem) hostIdx() int { return s.Config.Devices }

// Run drives the decomposed simulation to completion.
func (s *PDESSystem) Run() error { return s.PDES.Run(s.workers) }

// NewSession mirrors System.NewSession for the decomposed engine.
func (s *PDESSystem) NewSession(n int, opts ...rcce.Option) (*rcce.Session, error) {
	places, err := rcce.LinearPlaces(s.Chips, n)
	if err != nil {
		return nil, err
	}
	return s.NewSessionAt(places, opts...)
}

// NewSessionAt is NewSession with explicit placements. The protocol
// runs with the fault machinery disarmed (waits are purely
// event-driven; device crashes recover by held-delivery replay, so
// every awaited flag eventually lands), per-device sinks route every
// rank's observability to its own kernel, and the session runner is
// the PDES barrier-window engine.
func (s *PDESSystem) NewSessionAt(places []rcce.Place, opts ...rcce.Option) (*rcce.Session, error) {
	proto, err := s.Config.newProtocol(s.Config.Scheme, len(places))
	if err != nil {
		return nil, err
	}
	// The host region table has no PDES counterpart — routing decisions
	// live in Scheme.writePolicy.
	opts = append([]rcce.Option{
		rcce.WithDeviceSinks(s.sinks[:s.Config.Devices]),
		rcce.WithSink(s.sinks[s.hostIdx()]),
		rcce.WithRunner(s.Run),
	}, opts...)
	return newSession(s.PDES.Kernel(s.hostIdx()), s.Chips, places, proto, opts)
}

// --- device-side port ----------------------------------------------------

// mpbHalf identifies one core's MPB half: the key of its published range
// in the host software cache and in a receiver's stream buffer. The half
// index (off divided by the per-core LMB size) matters: two cores share
// a tile, and keying by tile alone would let one core's publication
// clobber the bookkeeping of its tile-mate's, leaving a peer's stale
// stream alive across an invalidation.
type mpbHalf struct{ dev, tile, half int }

// pdesStream is a receiver-side copy of a published sender MPB range,
// installed by a bulk host-cache response (the SIF prefetch streaming
// of Fig. 4b).
type pdesStream struct {
	off  int
	data []byte
}

// pdesHeld is one delivery held while its device is down, replayed in
// arrival order at rejoin.
type pdesHeld struct {
	fn    func()
	bytes int
}

// pdesPort implements scc.OffChipPort for one device kernel. All its
// state is owned by that kernel; the only cross-kernel effects are
// PDES.Post calls toward the host kernel.
type pdesPort struct {
	// The device's kernel, index and chip, and — armed only with a
	// DevCrashAt schedule — its crash recovery: the lifecycle shared with
	// Membership, here entirely on this device's kernel.
	devLifecycle
	// held is the host deliveries held while the device is down.
	held []pdesHeld

	sys *PDESSystem

	// stream holds host-pushed copies of published sender ranges;
	// invalidations arrive on the same FIFO host-to-device link as any
	// subsequent flag write, so a stale hit is impossible while the
	// protocol's grant/ready handshake holds.
	stream map[mpbHalf]*pdesStream
}

// post sends fn to the host kernel, arriving at cycle at.
func (pt *pdesPort) post(at sim.Cycles, fn func()) {
	pt.sys.PDES.Post(pt.dev, at, pt.sys.hostIdx(), fn)
}

// d2h is the device's device-to-host link, owned by this kernel.
func (pt *pdesPort) d2h() *noc.Link { return pt.sys.fabric.Link(pt.dev).D2H }

// sendLine queues one masked line on the device-to-host link, stalling p
// while the store occupies the SIF queue, and returns the line with its
// arrival cycle at the host. The line is copied out of the caller's WCB
// slot: that buffer is reused the moment the port method returns, but the
// bytes cross a kernel boundary and land a window later.
func (pt *pdesPort) sendLine(p *sim.Proc, data []byte) (buf [mem.LineSize]byte, arrive sim.Cycles) {
	copy(buf[:], data)
	now := p.Now()
	l := pt.d2h()
	done := l.Reserve(now, mem.LineSize)
	//lint:ignore simapi proof: Reserve returns done = max(now, free) + occupancy >= now
	p.Delay(done - now)
	return buf, done + l.Latency
}

// roundTrip sends a line-sized request up the link, parks p until the
// host's response comes back, and copies it into buf.
func (pt *pdesPort) roundTrip(p *sim.Proc, why string, buf []byte, serve func(wake func([]byte))) {
	arrive := arrival(pt.d2h(), p.Now(), pdesReqBytes)
	var resp []byte
	wake := func(data []byte) { resp = data; p.Unpark() }
	pt.post(arrive, func() { serve(wake) })
	p.Park(why)
	copy(buf, resp)
}

// WriteLine implements scc.OffChipPort.
func (pt *pdesPort) WriteLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, data []byte, mask uint32) {
	buf, arrive := pt.sendLine(p, data)
	pol := pt.sys.Config.Scheme.writePolicy(off)
	var wake func()
	if pol == ackHost || pol == ackRemote {
		wake = func() { p.Unpark() }
	}
	pt.post(arrive, func() { pt.sys.eng.write(srcDev, dev, tile, off, buf, mask, pol, wake) })
	switch pol {
	case ackFPGA:
		p.Delay(pt.sys.fabric.Params.SIFAckCycles)
	case ackHost, ackRemote:
		p.Park("pcie write ack")
	}
}

// ReadLine implements scc.OffChipPort.
func (pt *pdesPort) ReadLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, buf []byte) {
	// Stream-buffer hit: the host cache already pushed this published
	// range here; the read is a local SIF access.
	if s := pt.stream[mpbHalf{dev, tile, off / mem.CoreLMBSize}]; s != nil && off >= s.off && off+len(buf) <= s.off+len(s.data) {
		p.Delay(pt.sys.fabric.Params.SIFAckCycles)
		copy(buf, s.data[off-s.off:])
		return
	}
	pt.roundTrip(p, "pcie read", buf, func(wake func([]byte)) { pt.sys.eng.read(srcDev, dev, tile, off, len(buf), wake) })
}

// MMIOWriteLine implements scc.OffChipPort: fused register writes are
// posted (the WCB already absorbed them on-core).
func (pt *pdesPort) MMIOWriteLine(p *sim.Proc, srcDev, srcCore, hostDev, off int, data []byte, mask uint32) {
	buf, arrive := pt.sendLine(p, data)
	pt.post(arrive, func() { pt.sys.eng.mmioWrite(hostDev, off, buf, mask) })
}

// deliver applies (or holds, while the device is down) one
// LMB-mutating delivery from the host.
func (pt *pdesPort) deliver(bytes int, fn func()) {
	if pt.lost() {
		pt.held = append(pt.held, pdesHeld{fn: fn, bytes: bytes})
		return
	}
	fn()
}

// applyMasked lands the valid runs of a masked line write through the
// chip's host write path (observed by the checkpoint log, flag waiters
// woken).
func (pt *pdesPort) applyMasked(tile, off int, data [mem.LineSize]byte, mask uint32) {
	for lo, hi := mem.NextRun(mask, 0, mem.LineSize); lo < hi; lo, hi = mem.NextRun(mask, hi, mem.LineSize) {
		pt.chip.HostWriteLMB(tile, off+lo, data[lo:hi])
	}
}

// --- device-crash lifecycle ---------------------------------------------

// armDeviceFaults arms every device's lifecycle on its own kernel and
// schedules the crashes, as newMembership does (same counters, same
// drain/down/rejoin phases) without any cross-kernel state.
func (s *PDESSystem) armDeviceFaults(cfg fault.Config) {
	rejoin, interval := outageTimes(cfg)
	// The periodic checkpoint chains stop at a statically computed
	// horizon (end of the last scheduled outage) instead of a shared
	// pending counter: a cross-kernel counter would race.
	var horizon sim.Cycles
	for _, df := range cfg.DevCrashAt {
		horizon = max(horizon, df.At+fault.DefaultDrainCycles+downFor(df, rejoin))
	}
	for _, pt := range s.ports {
		pt.arm()
		var tick func()
		tick = func() {
			pt.checkpoint()
			if pt.k.Now() <= horizon {
				pt.k.After(interval, tick)
			}
		}
		pt.k.After(interval, tick)
	}
	for _, df := range cfg.DevCrashAt {
		if df.Dev < 0 || df.Dev >= len(s.ports) {
			continue
		}
		pt := s.ports[df.Dev]
		pt.k.At(df.At, func() { pt.fail(downFor(df, rejoin)) })
	}
}

// fail runs one scheduled crash through the device's lifecycle. While
// the device is down every host delivery is held; the rejoin replays
// them in arrival order, then reopens the lifecycle gate.
func (pt *pdesPort) fail(outage sim.Cycles) {
	started := pt.crash(outage, true,
		func() {
			// Device-side copies of published ranges die with the device.
			for key := range pt.stream {
				delete(pt.stream, key)
			}
		},
		func() {
			held := pt.held
			pt.held = nil
			frames, bytes := 0, 0
			for _, h := range held {
				h.fn()
				frames++
				bytes += h.bytes
			}
			pt.count("replay.frames", int64(frames))
			pt.count("replay.frame_bytes", int64(bytes))
			pt.gate.Open()
			pt.count("fault.recover.rejoin", 1)
		})
	if started {
		// The injector's ledger names, emitted directly: the pdes fault
		// path has no Injector instance, but the vscctrace recovery table
		// keys on these counters.
		pt.count("fault.inject.devcrash", 1)
	}
}

// --- host/PCIe kernel ----------------------------------------------------

// pdesHostCopy is the host cache's copy of one published range.
type pdesHostCopy struct {
	off, n  int
	data    []byte
	valid   bool
	readers []bool // devices holding a pushed stream of this copy
}

// pdesHost is the host/PCIe kernel's engine: the serialization point
// every classic host.Task service ran through, re-expressed as message
// handlers. All state is owned by the host kernel.
type pdesHost struct {
	sys   *PDESSystem
	k     *sim.Kernel
	idx   int
	busy  sim.Cycles
	banks []*host.Banks
	cache map[mpbHalf]*pdesHostCopy
}

func (e *pdesHost) sink() *trace.Sink { return e.sys.sinks[e.idx] }

// h2d is device dev's host-to-device link, owned by the host kernel.
func (e *pdesHost) h2d(dev int) *noc.Link { return e.sys.fabric.Link(dev).H2D }

// post sends fn to device dev's kernel, arriving at cycle at.
func (e *pdesHost) post(at sim.Cycles, dev int, fn func()) {
	e.sys.PDES.Post(e.idx, at, dev, fn)
}

// op serializes one host operation: it starts when the host is free
// and costs HostOpCycles; the return value is its completion time,
// from which any outbound link reservation starts.
func (e *pdesHost) op() sim.Cycles {
	start := e.k.Now()
	if e.busy > start {
		start = e.busy
	}
	e.busy = start + e.sys.fabric.Params.HostOpCycles
	e.sink().Add("pdes.host.ops", 1)
	return e.busy
}

// write handles one device store: apply it at the destination device
// and acknowledge per policy.
func (e *pdesHost) write(srcDev, dev, tile, off int, data [mem.LineSize]byte, mask uint32, pol ackPolicy, wake func()) {
	done := e.op()
	dst := e.sys.ports[dev]
	if pol == ackHost && wake != nil {
		// Host receipt: acknowledged as soon as the host has the line,
		// concurrently with the forward delivery.
		arrive := arrival(e.h2d(srcDev), done, pdesAckBytes)
		e.post(arrive, srcDev, wake)
		wake = nil
	}
	arrive := arrival(e.h2d(dev), done, mem.LineSize)
	remoteWake := wake // non-nil only for ackRemote
	e.post(arrive, dev, func() {
		dst.deliver(int(mem.LineSize), func() {
			dst.applyMasked(tile, off, data, mask)
			if remoteWake != nil {
				// Remote acknowledgement: back across both links.
				ackArrive := arrival(dst.d2h(), dst.k.Now(), pdesAckBytes)
				dst.post(ackArrive, func() {
					done := e.op()
					a := arrival(e.h2d(srcDev), done, pdesAckBytes)
					e.post(a, srcDev, remoteWake)
				})
			}
		})
	})
}

// fetch reads n bytes of a device's LMB on the host's behalf: a request
// down the link from cycle from, the read on the device (held while it
// is down), the data back up. then runs on the host kernel as the data
// arrives.
func (e *pdesHost) fetch(from sim.Cycles, dev, tile, off, n int, then func(data []byte)) {
	owner := e.sys.ports[dev]
	arrive := arrival(e.h2d(dev), from, pdesReqBytes)
	e.post(arrive, dev, func() {
		owner.deliver(n, func() {
			data := make([]byte, n)
			owner.chip.HostReadLMB(tile, off, data)
			back := arrival(owner.d2h(), owner.k.Now(), n)
			owner.post(back, func() { then(data) })
		})
	})
}

// read serves a device's foreign MPB line read.
func (e *pdesHost) read(srcDev, dev, tile, off, n int, wake func([]byte)) {
	done := e.op()
	key := mpbHalf{dev, tile, off / mem.CoreLMBSize}
	if c := e.cache[key]; c != nil && c.valid && off >= c.off && off+n <= c.off+c.n {
		// Cache hit: push the whole published range to the reader (the
		// prefetch stream), then serve the line out of it.
		e.sink().Add("pdes.cache.hits", 1)
		c.readers[srcDev] = true
		data := c.data
		cOff := c.off
		arrive := arrival(e.h2d(srcDev), done, len(data))
		rd := e.sys.ports[srcDev]
		e.post(arrive, srcDev, func() {
			rd.stream[key] = &pdesStream{off: cOff, data: data}
			resp := make([]byte, n)
			copy(resp, data[off-cOff:])
			wake(resp)
		})
		return
	}
	// Transparent forward to the owning device (4 hops).
	e.sink().Add("pdes.cache.forwards", 1)
	e.fetch(done, dev, tile, off, n, func(data []byte) {
		a := arrival(e.h2d(srcDev), e.op(), n)
		e.post(a, srcDev, func() { wake(data) })
	})
}

// mmioWrite lands a fused register write and executes any armed
// command.
func (e *pdesHost) mmioWrite(hostDev, off int, data [mem.LineSize]byte, mask uint32) {
	done := e.op()
	core := off / host.BankBytes
	cmd, trigger := e.banks[hostDev].Write(core, data[:], mask)
	if !trigger {
		return
	}
	cmd.SrcDev, cmd.SrcCore = hostDev, core
	if err := cmd.Validate(len(e.sys.Chips)); err != nil {
		// A corrupt command cannot occur without the fault injector;
		// dropping it deterministically matches the classic validator's
		// reject-and-continue behaviour.
		return
	}
	switch cmd.Cmd {
	case host.CmdUpdate:
		e.update(cmd, done)
	case host.CmdInvalidate:
		e.invalidate(cmd, done)
	case host.CmdCopy:
		e.vdmaCopy(cmd, done)
	}
}

// update executes CmdUpdate: fetch the published range of the
// requester's MPB into the host cache (warming the local-put/
// remote-get path).
func (e *pdesHost) update(cmd host.BankCommand, done sim.Cycles) {
	dev := cmd.SrcDev
	tile := scc.CoreTile(cmd.SrcCore)
	e.fetch(done, dev, tile, cmd.SrcOff, cmd.Count, func(data []byte) {
		e.op()
		key := mpbHalf{dev, tile, cmd.SrcOff / mem.CoreLMBSize}
		c := e.cache[key]
		if c == nil {
			c = &pdesHostCopy{readers: make([]bool, len(e.sys.Chips))}
			e.cache[key] = c
		}
		c.off, c.n, c.data, c.valid = cmd.SrcOff, cmd.Count, data, true
		for i := range c.readers {
			c.readers[i] = false
		}
	})
}

// invalidate executes CmdInvalidate: drop the host copy and push
// stream invalidations to every device holding one. The invalidations
// ride the same FIFO host-to-device links as all subsequent flag
// writes, so no reader can observe a stale stream after a flag that
// permits the next read.
func (e *pdesHost) invalidate(cmd host.BankCommand, done sim.Cycles) {
	dev := cmd.SrcDev
	tile := scc.CoreTile(cmd.SrcCore)
	key := mpbHalf{dev, tile, cmd.SrcOff / mem.CoreLMBSize}
	c := e.cache[key]
	if c == nil || !c.valid {
		return
	}
	if cmd.SrcOff >= c.off+c.n || cmd.SrcOff+cmd.Count <= c.off {
		return // disjoint range: the copy stays valid
	}
	c.valid = false
	for rd := 0; rd < len(c.readers); rd++ { // ascending: deterministic
		if !c.readers[rd] {
			continue
		}
		c.readers[rd] = false
		pt := e.sys.ports[rd]
		arrive := arrival(e.h2d(rd), done, pdesAckBytes)
		// Never held: a crashed device's streams were already lost in the
		// wipe.
		e.post(arrive, rd, func() { delete(pt.stream, key) })
	}
}

// vdmaCopy executes CmdCopy: the virtual DMA controller reads the
// source slot out of the requester's MPB, writes it (plus the notify
// flag, in the same delivery so data-before-flag holds trivially) to
// the destination, and raises the completion flag at the requester.
func (e *pdesHost) vdmaCopy(cmd host.BankCommand, done sim.Cycles) {
	e.sink().Add("pdes.vdma.copies", 1)
	srcDev := cmd.SrcDev
	srcTile := scc.CoreTile(cmd.SrcCore)
	src := e.sys.ports[srcDev]
	e.fetch(done+e.sys.fabric.Params.DMASetupCycles, srcDev, srcTile, cmd.SrcOff, cmd.Count, func(data []byte) {
		done := e.op()
		if cmd.Flags&host.FlagCompletion != 0 {
			ca := arrival(e.h2d(srcDev), done, pdesAckBytes)
			e.post(ca, srcDev, func() {
				src.deliver(1, func() {
					src.chip.HostWriteLMB(srcTile, cmd.ComplOff, []byte{cmd.ComplVal})
				})
			})
		}
		dst := e.sys.ports[cmd.DstDev]
		da := arrival(e.h2d(cmd.DstDev), done, cmd.Count)
		e.post(da, cmd.DstDev, func() {
			dst.deliver(cmd.Count, func() {
				dst.chip.HostWriteLMB(cmd.DstTile, cmd.DstOff, data)
				if cmd.Flags&host.FlagNotifyDest != 0 {
					dst.chip.HostWriteLMB(cmd.DstTile, cmd.NotifyOff, []byte{cmd.NotifyVal})
				}
			})
		})
	})
}
