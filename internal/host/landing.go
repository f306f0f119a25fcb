package host

import (
	"vscc/internal/mem"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

// A landing is the record of one transfer in flight through the host
// (see landingKind). It holds the bytes and what their landing needs,
// and goes back to its task's free list at the transfer's terminal
// landing, so once the pool is warm a line through the host allocates
// nothing. A vDMA copy's command and its last burst also carry the
// process that issues the copy or its flags, and go back when it ends.
type landing struct {
	t    *Task
	kind landingKind
	// land and body are the record's arrive and run methods, bound once
	// when the record is made: the deliver callback of every post it
	// rides, the body of every process it starts.
	land func()
	body func(*sim.Proc)
	next *landing // the free list, or a WCB flush's bursts
	// buf is one line, or DMABurstBytes, of storage; data is the bytes
	// in flight, in buf or, for a prefetch, in the cache entry.
	buf, data []byte

	// The source core and its retirement generation at issue.
	srcDev, srcCore int
	gen             uint32
	// The target; for MMIO, the register file's host device. A vDMA
	// burst's off is its offset into the copy.
	dev, tile, off int
	mask           uint32
	isFlag         bool

	w      *hostWCB    // landAbsorb
	e      *cacheEntry // landPrefetch
	sb     *sifBuffer  // landStream
	sifGen uint64      // landStream: sb's insert generation at post
	cmd    BankCommand // the vDMA copy; its last burst issues the flags
	ch     *vdmaChannel
	ticket uint64
}

// landingKind says what a record's landing, or process, does.
type landingKind uint8

const (
	landAbsorb    landingKind = iota // a line reaches a host WCB
	landEnqueue                      // a posted line reaches the host: on to the forwarder
	landDeliver                      // the forwarder's line reaches the target LMB
	landStream                       // a streamed line reaches the reader's SIF buffer
	landPrefetch                     // a prefetch burst reaches the host cache
	landFlush                        // a WCB flush burst reaches the target LMB
	landVDMARead                     // a vDMA burst reaches the host: on to the target
	landVDMAWrite                    // a vDMA burst reaches the target LMB
	landVDMAFlag                     // a vDMA notify or completion flag reaches its LMB
	landMMIO                         // a register write reaches the host
	landRegister                     // the register file takes it, a host op later
	runVDMACopy                      // the process issuing a vDMA copy's bursts
	runVDMAFinish                    // the process issuing a vDMA copy's flags
)

// record takes a record with room for n bytes off a free list: a line
// record, or a burst record of DMABurstBytes.
func (t *Task) record(kind landingKind, n int) *landing {
	list, size := &t.freeLines, mem.LineSize
	if n > mem.LineSize {
		list, size = &t.freeBursts, t.Params.DMABurstBytes
	}
	r := *list
	if r == nil {
		r = &landing{t: t, buf: make([]byte, size)}
		r.land, r.body = r.arrive, r.run
	} else {
		*list = r.next
	}
	r.kind, r.next, r.data = kind, nil, r.buf[:n]
	return r
}

// lineWrite takes a line record for a core's masked write of data to
// (dev, tile, off), issued at the core's retirement generation g.
func (t *Task) lineWrite(kind landingKind, srcDev, srcCore int, g uint32, dev, tile, off int, data []byte, mask uint32, isFlag bool) *landing {
	r := t.record(kind, min(len(data), mem.LineSize))
	copy(r.data, data)
	r.srcDev, r.srcCore, r.gen = srcDev, srcCore, g
	r.dev, r.tile, r.off, r.mask, r.isFlag = dev, tile, off, mask, isFlag
	return r
}

// free returns a record at its terminal landing.
func (t *Task) free(r *landing) {
	if t.poisonFreed {
		for i := range r.buf {
			r.buf[i] = 0xA5
		}
	}
	list := &t.freeLines
	if cap(r.buf) > mem.LineSize {
		list = &t.freeBursts
	}
	r.next, *list = *list, r
}

// live reports whether the record's source core still runs: a write of
// a core retired mid-flight (its session torn down for requeue) must not
// land on the successor session's reused MPB bytes, and is dropped.
func (r *landing) live() bool {
	if r.t.coreLive(r.srcDev, r.srcCore, r.gen) {
		return true
	}
	r.t.sink.Add("host.stale_write_drop", 1)
	return false
}

// arrive is a record's landing. It frees the record, unless the arm
// passes it on to the forwarder, a process or a later event.
func (r *landing) arrive() {
	t := r.t
	switch r.kind {
	case landAbsorb:
		if t.coreLive(r.srcDev, r.srcCore, r.gen) {
			r.w.absorb(r.off, r.data, r.mask)
			t.maybeFlushWCB(r.w, false)
		}
	case landEnqueue:
		t.enqueueDeliver(r)
		return
	case landDeliver:
		if r.live() {
			t.deliver(r.dev, r.tile, r.off, r.data, r.mask)
		}
	case landStream:
		if !r.sb.insertIfFresh(r.sifGen, r.dev, r.tile, lineKey(r.dev, r.tile, r.off), r.data) {
			t.sink.Add("host.stale_line_discard", 1)
		}
	case landPrefetch:
		e := r.e
		t.Chips[e.rg.Dev].HostReadLMB(e.rg.Tile, r.off, r.data)
		e.markValid(r.off, len(r.data))
		// Injected host-memory corruption: flip one byte after the
		// checksum was taken, so cacheClean catches it on first use.
		if t.faults.CorruptCacheLine(e.rg.Dev) {
			r.data[t.faults.Pick("host.cache", e.rg.Dev, len(r.data))] ^= 0x80
		}
		e.pending--
		e.cond.Broadcast()
	case landFlush:
		if r.live() {
			t.deliverBulk(r.dev, r.tile, r.off, r.data)
		}
		t.wcbPending[r.dev]--
		if t.sink != nil {
			t.sink.Gauge(t.wcbGauges[r.dev], int64(t.wcbPending[r.dev]))
		}
		t.wcbCond[r.dev].Broadcast()
	case landVDMARead:
		t.Chips[r.cmd.SrcDev].HostReadLMB(scc.CoreTile(r.cmd.SrcCore), r.cmd.SrcOff+r.off, r.data)
		r.kind = landVDMAWrite
		t.Kernel.Spawn("vdma.push", r.body)
		return
	case landVDMAWrite:
		if r.live() {
			t.deliverBulk(r.cmd.DstDev, r.cmd.DstTile, r.cmd.DstOff+r.off, r.data)
		}
		if r.off+len(r.data) >= r.cmd.Count {
			r.kind = runVDMAFinish
			t.Kernel.Spawn("vdma.finish", r.body)
			return
		}
	case landVDMAFlag:
		// The ticket still advances for a retired requester (later
		// commands of the channel may belong to a successor session),
		// but its flag values must never reach the reused MPB bytes.
		if r.live() {
			t.hostWrite(r.dev, r.tile, r.off, r.data)
		}
	case landMMIO:
		r.kind = landRegister
		t.Kernel.After(t.Fabric.Params.HostOpCycles, r.land)
		return
	case landRegister:
		if t.faults.CorruptMMIO(r.srcDev) {
			r.data[t.faults.Pick("host.mmio", r.srcDev, len(r.data))] ^= 0x20
		}
		cmd, trigger := t.banks(r.dev).Write(r.off/BankBytes, r.data, r.mask)
		if !trigger {
			break
		}
		cmd.SrcDev, cmd.SrcCore, cmd.srcGen = r.srcDev, r.srcCore, r.gen
		if t.gate.IsOpen() {
			t.execute(cmd)
			break
		}
		t.faults.RecordInjection("mmio-deferred", "host.mmio", r.srcDev)
		t.pendingCmds = append(t.pendingCmds, cmd)
	}
	t.free(r)
}

// run is the body of a process a record starts.
func (r *landing) run(p *sim.Proc) {
	t := r.t
	switch r.kind {
	case landVDMAWrite:
		t.Fabric.PostH2D(p, r.cmd.DstDev, len(r.data)+t.Params.StreamHeaderBytes, r.land)
		return
	case runVDMACopy:
		t.runVDMA(p, r.cmd, r.ch, r.ticket)
	case runVDMAFinish:
		t.finishVDMA(p, r.cmd, r.ch, r.ticket)
	}
	t.free(r)
}
