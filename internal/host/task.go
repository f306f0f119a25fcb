package host

import (
	"fmt"

	"vscc/internal/fault"
	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Params tunes the communication task beyond the fabric timing.
type Params struct {
	// SIFHitCycles is a read served by the device-side SIF response
	// buffer (on-chip class latency).
	SIFHitCycles sim.Cycles
	// SIFBufferLines is the SIF response-buffer capacity.
	SIFBufferLines int
	// StreamHeaderBytes is the per-line packet header of streamed read
	// responses; bulk DMA bursts amortize headers, streamed lines pay it
	// per line — the bandwidth gap between the vDMA and cached-read paths.
	StreamHeaderBytes int
	// DMABurstBytes is the burst size of host DMA transfers (prefetch,
	// vDMA, WCB flush).
	DMABurstBytes int
	// WCBFlushBytes is the dirty-byte threshold that triggers a
	// write-combining flush.
	WCBFlushBytes int
	// ReqBytes/RespBytes/AckBytes are the off-chip packet sizes for
	// read requests, line responses and write acknowledges.
	ReqBytes, RespBytes, AckBytes int
	// WriteHeaderBytes is the per-packet header of a posted line write.
	WriteHeaderBytes int
	// ReadOverheadNum/Den model the PCIe read-direction penalty: host
	// DMA reads from SCC memory through the SIF achieve only ~1/3 of the
	// write bandwidth (non-posted transactions, split completions; the
	// sccKit host<->device copy measurements show the same asymmetry).
	ReadOverheadNum, ReadOverheadDen int
}

// readBytes inflates a device-read burst by the read-direction penalty.
func (p Params) readBytes(n int) int {
	return n*p.ReadOverheadNum/p.ReadOverheadDen + p.StreamHeaderBytes
}

// DefaultParams returns the calibrated task configuration.
func DefaultParams() Params {
	return Params{
		SIFHitCycles:      150,
		SIFBufferLines:    512,
		StreamHeaderBytes: 8,
		DMABurstBytes:     1024,
		WCBFlushBytes:     1024,
		ReqBytes:          16,
		RespBytes:         48,
		AckBytes:          8,
		WriteHeaderBytes:  14,
		ReadOverheadNum:   13,
		ReadOverheadDen:   5,
	}
}

// Stats counts communication-task activity.
type Stats struct {
	SIFHits        uint64
	CachedReads    uint64
	ForwardedReads uint64
	PostedWrites   uint64
	SyncWrites     uint64
	StreamedLines  uint64
	Prefetches     uint64
	Invalidates    uint64
	VDMACopies     uint64
	WCBFlushes     uint64
	FlagFences     uint64
	// RejectedCommands counts register commands that failed validation
	// (corrupted or garbage programming); HostRestarts counts watchdog
	// recoveries of the communication task.
	RejectedCommands uint64
	HostRestarts     uint64
}

// Task is the vSCC communication task: the host-resident engine that
// owns the software cache, write-combining buffers, vDMA controller and
// register files, and implements the devices' off-chip port.
type Task struct {
	Kernel *sim.Kernel
	Params Params
	Fabric *pcie.Fabric
	Chips  []*scc.Chip

	regions   *regionTable
	regs      map[int]*Banks
	caches    map[*Region]*cacheEntry
	cacheList []*cacheEntry // deterministic iteration order
	wcbs      map[*Region]*hostWCB
	wcbList   []*hostWCB
	sifBufs   []*sifBuffer
	streams   map[streamKey]*stream
	streamLst []*stream

	// deliverQ is the per-device outbound delivery queue, drained in FIFO
	// order by one forwarder daemon per device — the paper's
	// "multithreaded daemon" with one thread per device (§3.2). FIFO
	// through a single queue and link preserves data-before-flag order
	// from any one source.
	deliverQ []*sim.Queue[*landing]
	// wcbPending counts in-flight write-combining flush bursts per
	// target device; flag deliveries fence on it.
	wcbPending []int
	wcbCond    []*sim.Cond

	// vdmaChans orders vDMA transactions per requesting core: data
	// bursts of consecutive transactions may pipeline, but notify and
	// completion flags are issued strictly in programming order, as on a
	// real per-channel DMA engine.
	vdmaChans map[[2]int]*vdmaChannel

	// coreGen holds each core's retirement generation (RetireCore):
	// deferred writes capture their source core's generation when issued
	// and drop on landing if the core was retired in between.
	coreGen map[[2]int]uint32

	// qos is the multi-tenant state (qos.go); nil — the default — keeps
	// every shared path byte-identical to the single-tenant task.
	qos *qosState

	stats Stats

	// Fault injection (nil = fault-free; every fault path short-circuits).
	faults *fault.Injector
	rec    fault.Recovery
	// gate models the communication task's liveness: stall windows close
	// it temporarily; a crash closes it until the watchdog restart. Open
	// the whole run when no faults are armed.
	gate *sim.Gate
	// pendingCmds queues register commands triggered while the gate is
	// closed: the register write itself lands in host RAM regardless, but
	// nobody acts on the doorbell. A stall drains the queue on resume; a
	// crash loses it (the device-side retry ladder re-programs).
	pendingCmds []BankCommand
	// devGates model per-device reachability for the task's synchronous
	// paths: the membership manager closes a gate while a device is down,
	// so blocking reads and transparent forwards toward it park until the
	// rejoin instead of touching wiped memory. Open the whole run when no
	// device faults are armed (zero cost — an open gate never parks).
	devGates []*sim.Gate

	// Observability (nil sink = disabled, zero overhead). fwdTracks
	// carries the per-device forwarder-daemon occupancy tracks; wcbGauges
	// the per-device in-flight flush-burst gauge names; vdmaInflight the
	// current vDMA queue occupancy.
	sink         *trace.Sink
	fwdTracks    []trace.Track
	wcbGauges    []string
	vdmaInflight int64

	// freeLines and freeBursts are the free lists of landing records
	// (landing.go), with line and with burst storage. poisonFreed, set
	// only by tests, fills every freed record's storage with 0xA5, so a
	// landing that reads a record after its release delivers garbage.
	freeLines, freeBursts *landing
	poisonFreed           bool
}

// Statically assert the port contract.
var _ scc.OffChipPort = (*Task)(nil)

// New builds the communication task for the given devices and wires
// itself in as every chip's off-chip port.
func New(k *sim.Kernel, fabric *pcie.Fabric, chips []*scc.Chip, params Params) (*Task, error) {
	if fabric.NumDevices() < len(chips) {
		return nil, fmt.Errorf("host: fabric has %d links for %d devices", fabric.NumDevices(), len(chips))
	}
	t := &Task{
		Kernel:    k,
		Params:    params,
		Fabric:    fabric,
		Chips:     chips,
		regions:   newRegionTable(),
		regs:      make(map[int]*Banks),
		caches:    make(map[*Region]*cacheEntry),
		wcbs:      make(map[*Region]*hostWCB),
		streams:   make(map[streamKey]*stream),
		vdmaChans: make(map[[2]int]*vdmaChannel),
		coreGen:   make(map[[2]int]uint32),
		rec:       fault.DefaultRecovery(),
		gate:      sim.NewGate(k, "commtask.alive"),
	}
	t.gate.Open()
	for d := range chips {
		bufLines := params.SIFBufferLines
		if bufLines <= 0 {
			bufLines = 1 // placeholder; streaming is disabled
		}
		t.sifBufs = append(t.sifBufs, newSIFBuffer(k, d, bufLines))
		g := sim.NewGate(k, fmt.Sprintf("dev%d.reachable", d))
		g.Open()
		t.devGates = append(t.devGates, g)
		t.wcbPending = append(t.wcbPending, 0)
		t.wcbCond = append(t.wcbCond, sim.NewCond(k, fmt.Sprintf("wcbpending.d%d", d)))
		t.deliverQ = append(t.deliverQ, sim.NewQueue[*landing](k, fmt.Sprintf("deliverq.d%d", d)))
		chips[d].OffChip = t
		d := d
		k.SpawnDaemon(fmt.Sprintf("commtask.d%d", d), func(p *sim.Proc) { t.runForwarder(p, d) })
	}
	return t, nil
}

// Register adds a region to the task's classification table (the
// boot-time registration of §3.1). Regions must be 32-byte aligned.
func (t *Task) Register(rg *Region) error {
	if rg.Off%mem.LineSize != 0 || rg.Len%mem.LineSize != 0 {
		return fmt.Errorf("host: region [%d,%d) not line aligned", rg.Off, rg.Off+rg.Len)
	}
	if rg.Dev < 0 || rg.Dev >= len(t.Chips) {
		return fmt.Errorf("host: region on unknown device %d", rg.Dev)
	}
	if err := t.regions.add(rg); err != nil {
		return err
	}
	switch rg.Mode {
	case ModeCached:
		e := newCacheEntry(t.Kernel, rg)
		e.track = t.faults != nil
		// Under multi-tenancy, a cached region owned by a bound core
		// counts against that tenant's cache partition.
		if q := t.tenantByCore(rg.Dev, rg.Owner); q != nil && q.cacheQuota > 0 {
			e.acct = q
		}
		t.caches[rg] = e
		t.cacheList = append(t.cacheList, e)
	case ModeWriteCombining:
		w := newHostWCB(rg)
		t.wcbs[rg] = w
		t.wcbList = append(t.wcbList, w)
	}
	return nil
}

// Stats returns a snapshot of the activity counters.
func (t *Task) Stats() Stats { return t.stats }

// SetFaults arms fault injection on the communication task: software
// cache lines gain integrity checksums, small host->LMB writes become
// write-verified, and the injector's stall windows and crash points are
// scheduled against the task's liveness gate.
func (t *Task) SetFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	t.faults = inj
	t.rec = inj.Recovery()
	for _, e := range t.cacheList {
		e.track = true
	}
	cfg := inj.Config()
	for _, w := range cfg.StallAt {
		w := w
		t.Kernel.At(w.At, func() {
			if !t.gate.IsOpen() {
				return // already down (overlapping window or crash)
			}
			inj.RecordInjection("stall", "host", -1)
			t.gate.Close()
			t.Kernel.After(w.For, func() { t.reopen("stall-resume") })
		})
	}
	for _, at := range cfg.CrashAt {
		t.Kernel.At(at, func() {
			if !t.gate.IsOpen() {
				return
			}
			inj.RecordInjection("crash", "host", -1)
			t.gate.Close()
			t.Kernel.After(t.rec.WatchdogCycles, t.restart)
		})
	}
}

// reopen resumes the task after a stall: deferred doorbells execute
// first (inline invalidates land before any blocked reader resumes),
// then the gate opens.
func (t *Task) reopen(kind string) {
	cmds := t.pendingCmds
	t.pendingCmds = nil
	for _, cmd := range cmds {
		t.execute(cmd)
	}
	t.faults.RecordRecovery(kind, "host", -1)
	t.gate.Open()
}

// restart is the watchdog recovery path: the communication task comes
// back up with its volatile state gone — software caches, SIF response
// buffers, streams, register files and deferred doorbells are reset.
// The delivery queues survive (they are journaled in host RAM and
// replayed), and in-flight DMA descriptors complete on the engine.
func (t *Task) restart() {
	for _, cmd := range t.pendingCmds {
		t.faults.RecordInjection("mmio-lost", "host.mmio", cmd.SrcDev)
	}
	t.pendingCmds = nil
	for _, e := range t.cacheList {
		e.invalidate(e.rg.Off, e.rg.Len)
		e.hotEnd = 0
	}
	for _, sb := range t.sifBufs {
		sb.reset()
	}
	for _, st := range t.streamLst {
		st.active = false
	}
	t.regs = make(map[int]*Banks)
	t.stats.HostRestarts++
	t.faults.RecordRecovery("watchdog-restart", "host", -1)
	t.gate.Open()
}

// DeviceDown marks a device unreachable: the membership manager calls
// it when the device leaves the drain window. Synchronous host paths
// toward the device park on its gate; posted traffic is already held in
// the PCIe journals by the framing layer.
func (t *Task) DeviceDown(d int) { t.devGates[d].Close() }

// DeviceUp reopens a device's gate after its rejoin.
func (t *Task) DeviceUp(d int) { t.devGates[d].Open() }

// RetireCore invalidates every in-flight write sourced from a core:
// posted deliveries, write-combining flushes and vDMA copies (including
// their notify/completion flags) capture the source core's generation
// when issued and drop silently on landing once it moved. The scheduler
// retires cores when it tears a dead session down for requeue —
// otherwise writes the dead ranks (or the rejoin replay of their
// journaled frames) left in flight would land on the successor
// session's reused MPB bytes and desynchronize its flag protocols.
func (t *Task) RetireCore(dev, core int) { t.coreGen[[2]int{dev, core}]++ }

// coreEpoch reads a core's current retirement generation.
func (t *Task) coreEpoch(dev, core int) uint32 { return t.coreGen[[2]int{dev, core}] }

// coreLive reports whether a write issued at generation g may land.
func (t *Task) coreLive(dev, core int, g uint32) bool { return t.coreGen[[2]int{dev, core}] == g }

// devWait parks p while device d is unreachable.
func (t *Task) devWait(p *sim.Proc, d int) { t.devGates[d].Wait(p) }

// forwardWait guards a synchronous forward running on the requesting
// core's proc against an unreachable target device. With transparent
// retry (devretry=1) it parks until the rejoin, like devWait. Under
// fail-fast recovery the strand is a device loss the requester must
// handle NOW — the rank-side protocol ladders never see it, because the
// forward blocks below them — so it panics the requesting proc with
// fault.ErrDeviceLost. A requester's own device is never failed fast
// (its cores freeze at the chip barrier instead).
func (t *Task) forwardWait(p *sim.Proc, srcDev, srcCore, dev int) {
	if t.faults != nil && !t.rec.DeviceRetry && dev != srcDev && !t.devGates[dev].IsOpen() {
		panic(fmt.Errorf("host: forward from device %d core %d: device %d lost at cycle %d: %w",
			srcDev, srcCore, dev, t.Kernel.Now(), fault.ErrDeviceLost))
	}
	t.devGates[dev].Wait(p)
}

// cacheClean verifies the checksum of a cached line before it is served.
// A mismatch means the line was corrupted in host memory: drop it (the
// reader falls back to a path that refetches correct data) and count the
// recovery.
func (t *Task) cacheClean(e *cacheEntry, off int) bool {
	if e.lineClean(off) {
		return true
	}
	e.invalidate(off, mem.LineSize)
	t.faults.RecordRecovery("cache-checksum", "host.cache", e.rg.Dev)
	return false
}

// hostWrite lands bytes in a device LMB. With faults armed, flag-sized
// writes are read back and re-issued until they stick — the recovery for
// lost remote MPB flag writes, which the §3.1 flag protocol otherwise
// has no way to detect.
func (t *Task) hostWrite(dev, tile, off int, data []byte) {
	chip := t.Chips[dev]
	chip.HostWriteLMB(tile, off, data)
	if t.faults == nil || t.rec.VerifyRetries < 0 || len(data) > 4 {
		return
	}
	var check [4]byte
	for a := 0; ; a++ {
		chip.HostReadLMB(tile, off, check[:len(data)])
		if string(check[:len(data)]) == string(data) {
			if a > 0 {
				t.faults.RecordRecovery("flag-rewrite", "scc.flag", dev)
			}
			return
		}
		if a >= t.rec.VerifyRetries {
			attempts := a
			t.Kernel.Spawn("host.flag-verify-fail", func(p *sim.Proc) {
				panic(fmt.Sprintf("host: flag write dev %d tile %d off %d failed after %d verify attempts", dev, tile, off, attempts))
			})
			return
		}
		chip.HostWriteLMB(tile, off, data)
	}
}

// Instrument attaches an observability sink: the communication task then
// records software-cache hits and misses, SIF packets, PCIe round trips,
// WCB flush sizes, vDMA queue occupancy, and per-device forwarder-thread
// occupancy spans. Passing a nil sink disables recording.
func (t *Task) Instrument(s *trace.Sink) {
	t.fwdTracks = t.fwdTracks[:0]
	t.wcbGauges = t.wcbGauges[:0]
	if !s.Enabled() {
		t.sink = nil
		return
	}
	t.sink = s
	for d := range t.Chips {
		t.fwdTracks = append(t.fwdTracks, s.Track("commtask", fmt.Sprintf("d%d", d)))
		t.wcbGauges = append(t.wcbGauges, fmt.Sprintf("host.wcb_pending.d%d", d))
	}
}

// meshToSIF charges the on-chip trip from a core to the system
// interface tile.
func (t *Task) meshToSIF(p *sim.Proc, srcDev, srcCore, bytes int) {
	chip := t.Chips[srcDev]
	t.sink.Add("pcie.sif_packets", 1)
	p.Delay(chip.Mesh.TransferLatency(scc.CoreCoord(srcCore), scc.SIFCoord, bytes))
}

// --- reads ------------------------------------------------------------

// ReadLine implements scc.OffChipPort.
func (t *Task) ReadLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, buf []byte) {
	t.meshToSIF(p, srcDev, srcCore, t.Params.ReqBytes)
	key := lineKey(dev, tile, off)
	sb := t.sifBufs[srcDev]
	if sb.take(key, buf) {
		p.Delay(t.Params.SIFHitCycles)
		t.stats.SIFHits++
		t.sink.Add("host.sif_hit", 1)
		return
	}
	rg := t.regions.find(dev, tile, off)
	// A stream racing toward this line: wait for it at the SIF instead of
	// issuing a redundant slow-path read.
	if rg != nil {
		for {
			st := t.streams[streamKey{readerDev: srcDev, rg: rg}]
			if st == nil || !st.active || off < st.nextOff {
				break
			}
			e := t.caches[rg]
			if e == nil || off >= rg.Off+e.hotEnd {
				break
			}
			sb.cond.Wait(p)
			if sb.take(key, buf) {
				p.Delay(t.Params.SIFHitCycles)
				t.stats.SIFHits++
				t.sink.Add("host.sif_hit", 1)
				return
			}
		}
	}
	// Slow path: cross to the host. The tenant pays for the request and
	// its response before touching the shared link.
	t.chargeBW(p, srcDev, srcCore, t.Params.ReqBytes+t.Params.RespBytes)
	t.devWait(p, srcDev)
	link := t.Fabric.Link(srcDev)
	link.D2H.Transfer(p, t.Params.ReqBytes)
	p.Delay(t.Fabric.Params.HostOpCycles)
	t.gate.Wait(p)
	if rg != nil && rg.Mode == ModeCached {
		e := t.caches[rg]
		for !e.lineValid(off) && e.pending > 0 {
			e.cond.Wait(p)
		}
		if e.lineValid(off) && t.cacheClean(e, off) {
			rel := off - rg.Off
			copy(buf, e.data[rel:rel+mem.LineSize])
			t.startStream(srcDev, rg, off+mem.LineSize)
			link.H2D.Transfer(p, t.Params.RespBytes)
			t.stats.CachedReads++
			t.sink.Add("host.cache_hit", 1)
			t.sink.Add("pcie.round_trips", 1)
			return
		}
		t.sink.Add("host.cache_miss", 1)
	}
	// Transparent forward to the owning device; an unreachable owner
	// parks the read until its rejoin restores the exact same bytes —
	// or, under fail-fast recovery, strands the requester with a
	// deterministic device-loss error.
	t.forwardWait(p, srcDev, srcCore, dev)
	tl := t.Fabric.Link(dev)
	tl.H2D.Transfer(p, t.Params.ReqBytes)
	var line [mem.LineSize]byte
	t.Chips[dev].HostReadLMB(tile, off, line[:])
	tl.D2H.Transfer(p, t.Params.RespBytes)
	p.Delay(t.Fabric.Params.HostOpCycles)
	link.H2D.Transfer(p, t.Params.RespBytes)
	copy(buf, line[:])
	t.stats.ForwardedReads++
	t.sink.Add("host.forwarded_read", 1)
	t.sink.Add("pcie.round_trips", 2)
}

// startStream begins (or leaves running) a prefetch stream into a
// reader's SIF buffer. A SIFBufferLines of zero disables streaming
// entirely (every read takes the host round trip) — the ablation knob
// for the prefetch-to-device design choice.
func (t *Task) startStream(readerDev int, rg *Region, fromOff int) {
	if t.Params.SIFBufferLines <= 0 {
		return
	}
	key := streamKey{readerDev: readerDev, rg: rg}
	if st := t.streams[key]; st != nil && st.active {
		return
	}
	e := t.caches[rg]
	if e == nil || fromOff >= rg.Off+e.hotEnd {
		return
	}
	st := &stream{readerDev: readerDev, rg: rg, nextOff: fromOff, active: true}
	t.streams[key] = st
	t.streamLst = append(t.streamLst, st)
	t.Kernel.Spawn(fmt.Sprintf("stream.d%d->d%d", rg.Dev, readerDev), func(sp *sim.Proc) {
		t.runStream(sp, st)
	})
}

func (t *Task) runStream(sp *sim.Proc, st *stream) {
	e := t.caches[st.rg]
	sb := t.sifBufs[st.readerDev]
	for st.active && st.nextOff < st.rg.Off+e.hotEnd {
		t.gate.Wait(sp)
		if !st.active {
			break
		}
		if !e.lineValid(st.nextOff) {
			if e.pending > 0 {
				e.cond.Wait(sp)
				continue
			}
			break
		}
		if !t.cacheClean(e, st.nextOff) {
			continue // line dropped; the loop re-evaluates validity
		}
		off := st.nextOff
		st.nextOff += mem.LineSize
		rel := off - st.rg.Off
		r := t.record(landStream, mem.LineSize)
		copy(r.data, e.data[rel:])
		r.dev, r.tile, r.off, r.sb = st.rg.Dev, st.rg.Tile, off, sb
		// Capture the region's invalidation generation at post time: a
		// line that is still in flight (e.g. delayed by an injected SIF
		// fault) when the owner's next invalidate lands must not reappear
		// in the buffer, or the reader would be served the previous
		// message's bytes.
		r.sifGen = sb.genOf(st.rg.Dev, st.rg.Tile)
		t.chargeBWRegion(sp, st.rg, mem.LineSize+t.Params.StreamHeaderBytes)
		t.Fabric.PostH2D(sp, st.readerDev, mem.LineSize+t.Params.StreamHeaderBytes, r.land)
		t.stats.StreamedLines++
		t.sink.Add("host.streamed_lines", 1)
	}
	st.active = false
	sb.cond.Broadcast()
}

// --- writes -----------------------------------------------------------

// WriteLine implements scc.OffChipPort.
func (t *Task) WriteLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, data []byte, mask uint32) {
	t.meshToSIF(p, srcDev, srcCore, mem.LineSize)
	t.chargeBW(p, srcDev, srcCore, mem.LineSize+t.Params.WriteHeaderBytes)
	rg := t.regions.find(dev, tile, off)
	link := t.Fabric.Link(srcDev)
	g := t.coreEpoch(srcDev, srcCore)
	// Write-combining host window: the new non-transparent fast path —
	// the write targets host memory, not another device, so the SIF
	// posts it safely; the core is throttled only by link backpressure
	// (§2.3/§3.3).
	if rg != nil && rg.Mode == ModeWriteCombining && rg.Kind == KindData {
		r := t.lineWrite(landAbsorb, srcDev, srcCore, g, dev, tile, off, data, mask, false)
		r.w = t.wcbs[rg]
		t.Fabric.PostD2H(p, srcDev, mem.LineSize+t.Params.WriteHeaderBytes, r.land)
		t.stats.PostedWrites++
		t.sink.Add("host.wcb_write", 1)
		return
	}
	isFlag := rg != nil && rg.Kind == KindFlag
	// Flag writes — and writes into registered posted-mode buffers — are
	// "directly acknowledged immediately" under the new protocol (§3.1):
	// the communication task owns delivery and the data-before-flag
	// fence (the per-device FIFO), so the core posts and continues.
	posted := isFlag || (rg != nil && rg.Mode == ModePosted)
	if posted && t.Fabric.Ack != pcie.AckRemote {
		r := t.lineWrite(landEnqueue, srcDev, srcCore, g, dev, tile, off, data, mask, true)
		t.Fabric.PostD2H(p, srcDev, mem.LineSize+t.Params.WriteHeaderBytes, r.land)
		t.stats.PostedWrites++
		t.sink.Add("host.posted_write", 1)
		return
	}
	switch t.Fabric.Ack {
	case pcie.AckFPGA:
		// Hardware-accelerated upper bound: the FPGA acks immediately;
		// delivery proceeds asynchronously through the host. The core
		// sees only SIF backpressure.
		r := t.lineWrite(landEnqueue, srcDev, srcCore, g, dev, tile, off, data, mask, isFlag)
		t.Fabric.PostD2H(p, srcDev, mem.LineSize+t.Params.WriteHeaderBytes, r.land)
		t.stats.PostedWrites++
		t.sink.Add("host.posted_write", 1)
	case pcie.AckHost:
		// The communication task acknowledges data writes on receipt;
		// delivery to the target device continues asynchronously.
		t.devWait(p, srcDev)
		link.D2H.Transfer(p, mem.LineSize)
		p.Delay(t.Fabric.Params.HostOpCycles)
		t.gate.Wait(p)
		t.enqueueDeliver(t.lineWrite(landDeliver, srcDev, srcCore, g, dev, tile, off, data, mask, isFlag))
		link.H2D.Transfer(p, t.Params.AckBytes)
		t.stats.SyncWrites++
		t.sink.Add("host.sync_write", 1)
		t.sink.Add("pcie.round_trips", 1)
	case pcie.AckRemote:
		// Transparent routing: the acknowledge comes back from the
		// remote device — the previous prototype's two-round-trip path.
		t.devWait(p, srcDev)
		link.D2H.Transfer(p, mem.LineSize)
		p.Delay(t.Fabric.Params.HostOpCycles)
		t.gate.Wait(p)
		if isFlag {
			t.fence(p, dev)
		}
		t.forwardWait(p, srcDev, srcCore, dev)
		tl := t.Fabric.Link(dev)
		tl.H2D.Transfer(p, mem.LineSize)
		t.deliver(dev, tile, off, data, mask)
		tl.D2H.Transfer(p, t.Params.AckBytes)
		p.Delay(t.Fabric.Params.HostOpCycles)
		link.H2D.Transfer(p, t.Params.AckBytes)
		t.stats.SyncWrites++
		t.sink.Add("host.sync_write", 1)
		t.sink.Add("pcie.round_trips", 2)
	}
}

// enqueueDeliver hands a line write's record to the target device's
// forwarder daemon. Under multi-tenancy it lands in the destination
// tenant's DRR class instead of the shared FIFO.
func (t *Task) enqueueDeliver(r *landing) {
	if t.qos != nil {
		t.qos.drr[r.dev].enqueue(t.tenantAt(r.dev, r.tile, r.off), r)
		return
	}
	t.deliverQ[r.dev].Push(r)
}

// runForwarder is the per-device daemon thread: it drains the delivery
// queue in FIFO order onto the device's host-to-device link. Flag items
// first force write-combining buffers targeting the device to flush and
// wait for those bursts to land, so a flag can never overtake combined
// data (§3.1).
func (t *Task) runForwarder(p *sim.Proc, dev int) {
	q := t.deliverQ[dev]
	for {
		var r *landing
		if t.qos != nil {
			// Multi-tenant: deficit-round-robin across tenant classes
			// (EnableQoS runs before the kernel, so the discipline is
			// fixed by the time the daemon first dispatches).
			r = t.qos.drr[dev].pop(p)
		} else {
			r = q.Pop(p)
		}
		t.gate.Wait(p)
		t0 := p.Now()
		isFlag := r.isFlag
		if isFlag {
			t.fence(p, dev)
		}
		// The record is freed at this landing, in the target's LMB.
		r.kind = landDeliver
		t.Fabric.PostH2D(p, dev, mem.LineSize, r.land)
		// Per-thread occupancy: how long this daemon thread was busy with
		// the item (including any flag fence), the §3.2 tuning signal.
		if t.sink != nil {
			name := "deliver"
			if isFlag {
				name = "deliver-flag"
			}
			t.sink.Span(t.fwdTracks[dev], name, t0, p.Now())
		}
	}
}

// deliver lands a masked line write in a device's LMB and keeps host
// copies consistent.
func (t *Task) deliver(dev, tile, off int, data []byte, mask uint32) {
	n := min(mem.LineSize, len(data))
	for lo, hi := mem.NextRun(mask, 0, n); lo < hi; lo, hi = mem.NextRun(mask, hi, n) {
		t.hostWrite(dev, tile, off+lo, data[lo:hi])
	}
	t.invalidateHostCopies(dev, tile, off, mem.LineSize)
}

// invalidateHostCopies drops cache and SIF copies overlapping a write.
func (t *Task) invalidateHostCopies(dev, tile, off, n int) {
	for _, e := range t.cacheList {
		rg := e.rg
		if rg.Dev == dev && rg.Tile == tile && off < rg.Off+rg.Len && rg.Off < off+n {
			lo := off
			if lo < rg.Off {
				lo = rg.Off
			}
			hi := off + n
			if hi > rg.Off+rg.Len {
				hi = rg.Off + rg.Len
			}
			e.invalidate(lo, hi-lo)
			t.killStreams(rg)
		}
	}
	for _, sb := range t.sifBufs {
		sb.invalidateRange(dev, tile, off, n)
	}
}

// fence blocks until all write-combining bursts toward dev have landed.
func (t *Task) fence(p *sim.Proc, dev int) {
	t.flushWCBsTo(dev)
	for t.wcbPending[dev] > 0 {
		t.wcbCond[dev].Wait(p)
	}
	t.stats.FlagFences++
	t.sink.Add("host.flag_fence", 1)
}

// --- write combining ----------------------------------------------------

// flushWCBsTo force-flushes every write-combining buffer targeting dev.
func (t *Task) flushWCBsTo(dev int) {
	for _, w := range t.wcbList {
		if w.rg.Dev == dev {
			t.maybeFlushWCB(w, true)
		}
	}
}

// maybeFlushWCB flushes a host write-combining buffer when it crossed
// the burst threshold (or unconditionally when forced).
func (t *Task) maybeFlushWCB(w *hostWCB, force bool) {
	if w.dirtyBytes == 0 {
		return
	}
	if !force && w.dirtyBytes < t.Params.WCBFlushBytes {
		return
	}
	dev := w.rg.Dev
	// The landing guard keys on the region owner's retirement
	// generation: a flush racing the owner session's requeue teardown
	// must not write the reused payload bytes. The burst accounting
	// (wcbPending, fence broadcast) still runs for dropped bursts.
	g := t.coreEpoch(w.rg.Dev, w.rg.Owner)
	// Each span goes out in DMA bursts, each in a record filled now and
	// chained for the flush process to post.
	var head *landing
	link := &head
	bursts, flushBytes := 0, 0
	w.takeSpans(func(off int, data []byte) {
		flushBytes += len(data)
		for o := 0; o < len(data); o += t.Params.DMABurstBytes {
			n := min(len(data)-o, t.Params.DMABurstBytes)
			r := t.record(landFlush, n)
			copy(r.data, data[o:o+n])
			r.srcDev, r.srcCore, r.gen = w.rg.Dev, w.rg.Owner, g
			r.dev, r.tile, r.off = dev, w.rg.Tile, off+o
			*link, link = r, &r.next
			bursts++
		}
	})
	if head == nil {
		return
	}
	t.stats.WCBFlushes++
	// Count the bursts against the flag fence *now*, so a flag delivery
	// processed in the same instant cannot slip past the data.
	t.wcbPending[dev] += bursts
	if t.sink != nil {
		t.sink.Add("host.wcb_flush", 1)
		t.sink.Add("host.dma_bursts", int64(bursts))
		t.sink.Observe("host.wcb_flush_bytes", float64(flushBytes))
		t.sink.Gauge(t.wcbGauges[dev], int64(t.wcbPending[dev]))
	}
	t.Kernel.Spawn(fmt.Sprintf("wcbflush.d%d", dev), func(fp *sim.Proc) {
		t.gate.Wait(fp)
		// Each flush programs one DMA descriptor on the host.
		fp.Delay(t.Fabric.Params.DMASetupCycles)
		for r := head; r != nil; {
			next := r.next
			r.next = nil
			t.chargeBWRegion(fp, w.rg, len(r.data)+t.Params.StreamHeaderBytes)
			t.Fabric.PostH2D(fp, dev, len(r.data)+t.Params.StreamHeaderBytes, r.land)
			r = next
		}
	})
}

// --- MMIO and the vDMA controller ---------------------------------------

// MMIOWriteLine implements scc.OffChipPort: a fused register write lands
// in the host register file and may trigger a command.
func (t *Task) MMIOWriteLine(p *sim.Proc, srcDev, srcCore, hostDev, off int, data []byte, mask uint32) {
	t.meshToSIF(p, srcDev, srcCore, mem.LineSize)
	t.chargeBW(p, srcDev, srcCore, mem.LineSize)
	p.Delay(t.Fabric.Params.SIFAckCycles)
	r := t.lineWrite(landMMIO, srcDev, srcCore, t.coreEpoch(srcDev, srcCore), hostDev, 0, off, data, mask, false)
	t.Fabric.PostD2H(p, srcDev, mem.LineSize, r.land)
}

// banks returns device dev's register window, made on first use.
func (t *Task) banks(dev int) *Banks {
	rf, ok := t.regs[dev]
	if !ok {
		rf = NewBanks()
		t.regs[dev] = rf
	}
	return rf
}

// execute dispatches a triggered register command after validation; a
// command whose fields fail the sanity check (corrupted programming) is
// rejected rather than executed, and the device-side protocol recovers
// by re-programming.
func (t *Task) execute(cmd BankCommand) {
	if err := cmd.Validate(len(t.Chips)); err != nil {
		t.stats.RejectedCommands++
		t.faults.RecordRecovery("mmio-reject", "host.mmio", cmd.SrcDev)
		return
	}
	switch cmd.Cmd {
	case CmdCopy:
		// A copy whose requester was retired (its session torn down while
		// the MMIO frame was in flight or journaled) is dead on arrival.
		if !t.coreLive(cmd.SrcDev, cmd.SrcCore, cmd.srcGen) {
			t.sink.Add("host.stale_write_drop", 1)
			return
		}
		t.stats.VDMACopies++
		ch := t.vdmaChannel(cmd.SrcDev, cmd.SrcCore)
		ticket := ch.nextTicket
		ch.nextTicket++
		t.vdmaInflight++
		t.sink.Add("host.vdma_copy", 1)
		t.sink.Gauge("host.vdma_inflight", t.vdmaInflight)
		r := t.record(runVDMACopy, 0)
		r.cmd, r.ch, r.ticket = cmd, ch, ticket
		t.Kernel.Spawn("vdma.copy", r.body)
	case CmdUpdate:
		srcTile := scc.CoreTile(cmd.SrcCore)
		rg := t.regions.find(cmd.SrcDev, srcTile, cmd.SrcOff)
		if rg == nil || rg.Mode != ModeCached || rg.Owner != cmd.SrcCore {
			return // unregistered or foreign region: ignore, like real MMIO
		}
		e := t.caches[rg]
		if end := cmd.SrcOff + cmd.Count - rg.Off; end > e.hotEnd {
			e.hotEnd = end
		}
		t.stats.Prefetches++
		t.sink.Add("host.prefetch", 1)
		t.Kernel.Spawn("prefetch", func(p *sim.Proc) { t.runPrefetch(p, rg, cmd.SrcOff, cmd.Count) })
	case CmdInvalidate:
		srcTile := scc.CoreTile(cmd.SrcCore)
		rg := t.regions.find(cmd.SrcDev, srcTile, cmd.SrcOff)
		if rg == nil || rg.Owner != cmd.SrcCore {
			return
		}
		t.stats.Invalidates++
		if e := t.caches[rg]; e != nil {
			e.invalidate(cmd.SrcOff, cmd.Count)
		}
		t.killStreams(rg)
		for _, sb := range t.sifBufs {
			sb.invalidateRange(rg.Dev, rg.Tile, cmd.SrcOff, cmd.Count)
		}
	}
}

// killStreams deactivates streams sourcing from a region.
func (t *Task) killStreams(rg *Region) {
	for _, st := range t.streamLst {
		if st.rg == rg && st.active {
			st.active = false
			t.sifBufs[st.readerDev].cond.Broadcast()
		}
	}
	// Drop finished streams from the list occasionally to bound growth.
	if len(t.streamLst) > 64 {
		live := t.streamLst[:0]
		for _, st := range t.streamLst {
			if st.active {
				live = append(live, st)
			}
		}
		t.streamLst = live
	}
}

// runPrefetch copies [off, off+count) of a cached region into the host
// copy in DMA bursts.
func (t *Task) runPrefetch(p *sim.Proc, rg *Region, off, count int) {
	e := t.caches[rg]
	if e.data == nil {
		e.data, e.valid = make([]byte, rg.Len), make([]bool, rg.Len/mem.LineSize)
	}
	t.gate.Wait(p)
	p.Delay(t.Fabric.Params.DMASetupCycles)
	end := off + count
	if end > rg.Off+rg.Len {
		end = rg.Off + rg.Len
	}
	for o := off; o < end; o += t.Params.DMABurstBytes {
		n := end - o
		if n > t.Params.DMABurstBytes {
			n = t.Params.DMABurstBytes
		}
		e.pending++
		t.sink.Add("host.dma_bursts", 1)
		t.chargeBWRegion(p, rg, t.Params.readBytes(n))
		r := t.record(landPrefetch, 0)
		r.e, r.off, r.data = e, o, e.data[o-rg.Off:o-rg.Off+n]
		t.Fabric.PostD2H(p, rg.Dev, t.Params.readBytes(n), r.land)
	}
}

// vdmaChannel is the per-core DMA ordering state.
type vdmaChannel struct {
	nextTicket uint64
	served     uint64
	cond       *sim.Cond
}

func (t *Task) vdmaChannel(dev, core int) *vdmaChannel {
	key := [2]int{dev, core}
	ch, ok := t.vdmaChans[key]
	if !ok {
		ch = &vdmaChannel{cond: sim.NewCond(t.Kernel, fmt.Sprintf("vdmachan.d%d.c%d", dev, core))}
		t.vdmaChans[key] = ch
	}
	return ch
}

// runVDMA performs one virtual-DMA copy: requester MPB -> host -> target
// MPB, pipelined in bursts over both PCIe directions, with optional
// destination notify and requester completion flag (Fig. 5). Data bursts
// of back-to-back transactions may overlap; the notify/completion flags
// are issued in strict programming order via the channel ticket.
func (t *Task) runVDMA(p *sim.Proc, cmd BankCommand, ch *vdmaChannel, ticket uint64) {
	t.gate.Wait(p)
	p.Delay(t.Fabric.Params.DMASetupCycles)
	for o := 0; o < cmd.Count; o += t.Params.DMABurstBytes {
		n := min(cmd.Count-o, t.Params.DMABurstBytes)
		t.sink.Add("host.dma_bursts", 1)
		// Both PCIe directions of the copy bill the requesting tenant;
		// the shaping delay throttles this channel's burst pipeline.
		t.chargeBW(p, cmd.SrcDev, cmd.SrcCore, t.Params.readBytes(n)+n+t.Params.StreamHeaderBytes)
		r := t.record(landVDMARead, n)
		r.srcDev, r.srcCore, r.gen = cmd.SrcDev, cmd.SrcCore, cmd.srcGen
		r.cmd, r.off, r.ch, r.ticket = cmd, o, ch, ticket
		t.Fabric.PostD2H(p, cmd.SrcDev, t.Params.readBytes(n), r.land)
	}
}

// finishVDMA issues the notify and completion flags of a transaction
// once all earlier transactions of the same channel have issued theirs.
func (t *Task) finishVDMA(p *sim.Proc, cmd BankCommand, ch *vdmaChannel, ticket uint64) {
	for ch.served != ticket {
		ch.cond.Wait(p)
	}
	t.gate.Wait(p)
	if cmd.Flags&FlagNotifyDest != 0 {
		r := t.lineWrite(landVDMAFlag, cmd.SrcDev, cmd.SrcCore, cmd.srcGen, cmd.DstDev, cmd.DstTile, cmd.NotifyOff, []byte{cmd.NotifyVal}, 1, false)
		t.Fabric.PostH2D(p, cmd.DstDev, t.Params.AckBytes, r.land)
	}
	if cmd.Flags&FlagCompletion != 0 {
		r := t.lineWrite(landVDMAFlag, cmd.SrcDev, cmd.SrcCore, cmd.srcGen, cmd.SrcDev, scc.CoreTile(cmd.SrcCore), cmd.ComplOff, []byte{cmd.ComplVal}, 1, false)
		t.Fabric.PostH2D(p, cmd.SrcDev, t.Params.AckBytes, r.land)
	}
	ch.served = ticket + 1
	t.vdmaInflight--
	t.sink.Gauge("host.vdma_inflight", t.vdmaInflight)
	ch.cond.Broadcast()
}

// deliverBulk lands a contiguous multi-line write (DMA burst) in a
// device's LMB and keeps host copies consistent.
func (t *Task) deliverBulk(dev, tile, off int, data []byte) {
	t.hostWrite(dev, tile, off, data)
	t.invalidateHostCopies(dev, tile, off, len(data))
}
