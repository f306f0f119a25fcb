package noc

import (
	"fmt"
	"strconv"

	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Link is a shared serial resource with a fixed per-transfer latency and a
// finite bandwidth — a latency-rate server. Concurrent transfers are
// serialized in arrival order, which deterministically models contention
// on a single physical channel such as the SCC system-interface port at
// tile (3,0) or a PCIe lane group.
type Link struct {
	name string
	// Latency is the fixed head latency of any transfer.
	Latency sim.Cycles
	// CyclesPerByte expresses bandwidth as cycles of channel occupancy per
	// payload byte (scaled by 1024 for sub-cycle precision).
	cyclesPerByteX1024 uint64
	// nextFree is the simulated time at which the channel becomes idle.
	nextFree sim.Cycles

	// Stats.
	bytesTotal    uint64
	transfers     uint64
	busyCycles    sim.Cycles
	waitedCycles  sim.Cycles
	maxQueueDelay sim.Cycles

	// Observability (nil sink = disabled, zero overhead).
	sink         *trace.Sink
	track        trace.Track
	bytesCounter string
	queueHist    string
}

// NewLink creates a link. bytesPerCycle expresses bandwidth in payload
// bytes per core cycle (may be fractional, e.g. 0.25).
func NewLink(name string, latency sim.Cycles, bytesPerCycle float64) *Link {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("noc: link %q with non-positive bandwidth", name))
	}
	return &Link{
		name:               name,
		Latency:            latency,
		cyclesPerByteX1024: uint64(1024/bytesPerCycle + 0.5),
	}
}

// Instrument attaches an observability sink: every subsequent transfer
// records a channel-occupancy span on the link's track, a cumulative byte
// counter, and (when the channel was busy) a queueing-delay histogram
// sample. A nil sink detaches.
func (l *Link) Instrument(s *trace.Sink) {
	l.sink = s
	l.track = s.Track("noc", l.name)
	if s.Enabled() {
		l.bytesCounter = "noc." + l.name + ".bytes"
		l.queueHist = "noc." + l.name + ".queue_cycles"
	}
}

// record captures one reserved transfer on the attached sink. It guards
// itself so the disabled path allocates nothing (vsccvet: tracealloc).
func (l *Link) record(bytes int, start, occ, queued sim.Cycles) {
	if !l.sink.Enabled() {
		return
	}
	l.sink.Span(l.track, "xfer "+strconv.Itoa(bytes)+"B", start, start+occ)
	l.sink.Add(l.bytesCounter, int64(bytes))
	if queued > 0 {
		l.sink.Observe(l.queueHist, float64(queued))
	}
}

// OccupancyFor returns the channel occupancy time for a payload.
func (l *Link) OccupancyFor(bytes int) sim.Cycles {
	if bytes < 0 {
		bytes = 0
	}
	return sim.Cycles((uint64(bytes)*l.cyclesPerByteX1024 + 1023) / 1024)
}

// Reserve queues a transfer of bytes, issued at now, behind the
// channel's earlier ones: it books the occupancy, the usage counters and
// the trace record, and returns the cycle the last byte is on the wire;
// the bytes arrive Latency later. It moves no process, so an event
// callback may book a transfer too. Reservations are not synchronized:
// one kernel owns a link.
func (l *Link) Reserve(now sim.Cycles, bytes int) sim.Cycles {
	start := max(now, l.nextFree)
	occ := l.OccupancyFor(bytes)
	l.nextFree = start + occ
	queued := start - now
	l.transfers++
	l.bytesTotal += uint64(bytes)
	l.busyCycles += occ
	l.waitedCycles += queued
	l.maxQueueDelay = max(l.maxQueueDelay, queued)
	l.record(bytes, start, occ, queued)
	return l.nextFree
}

// Transfer moves bytes across the link from process context, blocking the
// caller for queueing delay + latency + serialization. It returns the
// cycles actually spent.
func (l *Link) Transfer(p *sim.Proc, bytes int) sim.Cycles {
	now := p.Now()
	done := l.Reserve(now, bytes) + l.Latency
	//lint:ignore simapi done = start + occupancy + latency with start >= now
	p.Delay(done - now)
	return done - now
}

// TransferAsync reserves channel occupancy like Transfer but overlaps the
// propagation latency: the caller is delayed only until its bytes are on
// the wire, and onDelivered fires (as a kernel callback) when they arrive
// at the far end. Back-to-back TransferAsync calls therefore pipeline —
// the behaviour of posted writes and streaming DMA engines. Deliveries on
// one link never reorder.
func (l *Link) TransferAsync(p *sim.Proc, bytes int, onDelivered func()) {
	now := p.Now()
	onWire := l.Reserve(now, bytes)
	if onDelivered != nil {
		p.Kernel().At(onWire+l.Latency, onDelivered)
	}
	//lint:ignore simapi onWire = start + occupancy with start >= now
	p.Delay(onWire - now)
}

// LinkStats is a snapshot of link usage counters.
type LinkStats struct {
	Transfers     uint64
	BytesTotal    uint64
	BusyCycles    sim.Cycles
	WaitedCycles  sim.Cycles
	MaxQueueDelay sim.Cycles
}

// Stats returns usage counters accumulated since creation.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Transfers:     l.transfers,
		BytesTotal:    l.bytesTotal,
		BusyCycles:    l.busyCycles,
		WaitedCycles:  l.waitedCycles,
		MaxQueueDelay: l.maxQueueDelay,
	}
}
