package vscc

// Asynchronous inter-device communication — the paper's future work
// ("For future work, we plan to extend our communication concept to
// accelerate asynchronous communication", §5). AsyncEngine provides
// non-blocking isend/irecv over the vDMA scheme: the sender puts a chunk,
// programs the controller and returns to useful work while the host
// moves the data; progress is cooperative (pushed during Test/Wait), as
// on the bare-metal SCC.
//
// The engine shares the per-pair counter flags with the blocking vDMA
// protocol, so blocking and asynchronous transfers may alternate on a
// pair — but must not overlap, exactly like iRCCE and blocking RCCE.

import (
	"fmt"
	"sort"
	"strings"

	"vscc/internal/host"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

// AsyncEngine drives non-blocking cross-device requests for one rank.
// The session must run the vDMA scheme.
type AsyncEngine struct {
	r     *rcce.Rank
	ip    *interDeviceProtocol
	sendQ map[int][]*AsyncRequest
	recvQ map[int][]*AsyncRequest
}

// NewAsyncEngine creates the engine for rank r. It fails unless the
// session's wire protocol is a vSCC vDMA configuration.
func NewAsyncEngine(r *rcce.Rank) (*AsyncEngine, error) {
	ip, ok := r.Session().Protocol().(*interDeviceProtocol)
	if !ok || ip.desc.flow != flowSeq {
		return nil, fmt.Errorf("vscc: async engine requires the vDMA scheme, session runs %q", r.Session().Protocol().Name())
	}
	return &AsyncEngine{
		r:     r,
		ip:    ip,
		sendQ: map[int][]*AsyncRequest{},
		recvQ: map[int][]*AsyncRequest{},
	}, nil
}

// async request states.
const (
	asWaitGrant = iota // sender: wait for the receiver's buffer credit
	asWaitSlot         // sender: wait for the vDMA to release our slot
	asWaitDrain        // sender: all chunks armed; wait for final drain
	arWaitData         // receiver: wait for the chunk's notify counter
	asDone
)

// AsyncRequest is one outstanding non-blocking vDMA transfer.
type AsyncRequest struct {
	eng  *AsyncEngine
	send bool
	peer int

	rest     []byte
	total    int
	firstSeq uint64
	lastSeq  uint64
	seq      uint64 // chunk currently being worked on
	state    int

	// Newest vDMA command programmed for this request; re-issued when a
	// stalled engine suspects the programming write was lost in flight.
	cmd     host.BankCommand
	haveCmd bool
}

// Done reports completion without progressing the request.
func (q *AsyncRequest) Done() bool { return q.state == asDone }

// Isend starts a non-blocking send to a rank on another device.
func (e *AsyncEngine) Isend(dest int, data []byte) (*AsyncRequest, error) {
	return e.start(true, dest, data)
}

// Irecv starts a non-blocking receive from a rank on another device.
func (e *AsyncEngine) Irecv(src int, buf []byte) (*AsyncRequest, error) {
	return e.start(false, src, buf)
}

// start queues one request. It claims the request's chunk numbers from
// the pair's counter at once, so requests on a pair complete in order.
func (e *AsyncEngine) start(send bool, peer int, buf []byte) (*AsyncRequest, error) {
	if e.r.Session().SameDevice(e.r.ID(), peer) {
		return nil, fmt.Errorf("vscc: async transfer with same-device rank %d; use the iRCCE engine on-chip", peer)
	}
	q := &AsyncRequest{eng: e, send: send, peer: peer, rest: buf, total: len(buf), state: asDone}
	if len(buf) == 0 {
		return q, nil
	}
	queue, count := e.recvQ, &e.ip.pair(peer, e.r.ID()).in
	q.state = arWaitData
	if send {
		queue, count = e.sendQ, &e.ip.pair(e.r.ID(), peer).out
		q.state = asWaitGrant
	}
	q.firstSeq = *count + 1
	q.lastSeq = *count + chunksFor(len(buf), e.ip.slot)
	q.seq = q.firstSeq
	*count = q.lastSeq
	if !send {
		// Issue the first grant immediately: the sender cannot move before it.
		e.publishGrant(q)
	}
	queue[peer] = append(queue[peer], q)
	e.Push()
	return q, nil
}

// publishGrant posts the receiver's buffer credit for the chunk q.seq.
func (e *AsyncEngine) publishGrant(q *AsyncRequest) {
	e.ip.grantThrough(e.r, q.peer, q.seq, q.lastSeq)
}

// queues lists the send queues before the receive queues; with each
// walked by ascending peer that is the one order every scan below uses.
func (e *AsyncEngine) queues() [2]map[int][]*AsyncRequest {
	return [2]map[int][]*AsyncRequest{e.sendQ, e.recvQ}
}

// heads returns the head of every non-empty queue.
func (e *AsyncEngine) heads() []*AsyncRequest {
	var heads []*AsyncRequest
	for _, m := range e.queues() {
		for _, peer := range asyncSortedPeers(m) {
			heads = append(heads, m[peer][0])
		}
	}
	return heads
}

// Push advances every queue head as far as possible without blocking
// and reports whether anything progressed.
func (e *AsyncEngine) Push() bool {
	progressed := false
	for _, m := range e.queues() {
		for _, peer := range asyncSortedPeers(m) {
			if e.pushQueue(m, peer) {
				progressed = true
			}
		}
	}
	return progressed
}

func (e *AsyncEngine) pushQueue(m map[int][]*AsyncRequest, peer int) bool {
	q := m[peer]
	progressed := false
	for len(q) > 0 && q[0].push() {
		progressed = true
		if q[0].state == asDone {
			q = q[1:]
		}
	}
	if len(q) > 0 && q[0].state == asDone {
		q = q[1:]
		progressed = true
	}
	m[peer] = q
	return progressed
}

// Test pushes progress once and reports completion.
func (e *AsyncEngine) Test(q *AsyncRequest) bool {
	e.Push()
	return q.state == asDone
}

// Wait blocks until the request completes, sleeping on local MPB
// changes between progress rounds.
func (e *AsyncEngine) Wait(q *AsyncRequest) { e.WaitAll(q) }

// WaitAll blocks until every request completes. Fault-free, each sleep
// waits indefinitely for a local MPB change (budget 0), as before.
// Under fault injection every sleep carries a cycle budget; when it
// expires without progress, the engine re-arms the vDMA commands of its
// blocked senders and republishes outstanding grants (both idempotent —
// the same bytes and flag values land again, and counters never move
// backward), then retries with a doubled budget. Past the retry bound
// the engine fails deterministically with a snapshot of the stalled
// queue heads.
func (e *AsyncEngine) WaitAll(reqs ...*AsyncRequest) {
	ip := e.ip
	budget := sim.Cycles(0)
	if ip.faults != nil {
		budget = ip.rec.WaitBudget
	}
	stalls := 0
	for {
		allDone := true
		for _, q := range reqs {
			if q.state != asDone {
				allDone = false
			}
		}
		if allDone {
			return
		}
		if e.Push() {
			stalls = 0
			if ip.faults != nil {
				budget = ip.rec.WaitBudget
			}
			continue
		}
		if e.anyActionable() {
			continue
		}
		if e.r.WaitAnyLocalChangeFor(budget) {
			continue
		}
		stalls++
		// A stall against a crashed peer device is a device loss, not a
		// lost flag: park until the rejoin (devretry=1) or fail with the
		// deterministic sentinel.
		if lost := e.lostPeerDev(); lost >= 0 {
			if !ip.rec.DeviceRetry {
				panic(fmt.Errorf("vscc: async engine rank %d: device %d lost at cycle %d: %w",
					e.r.ID(), lost, e.r.Now(), rcce.ErrDeviceLost))
			}
			ip.faults.RecordRecovery("device-wait", "vscc.async", lost)
			ip.mem.AwaitUp(e.r.Ctx().Proc, lost)
			stalls = 0
			budget = ip.rec.WaitBudget
			e.rearmStalled()
			continue
		}
		if stalls > ip.rec.MaxWaitRetries {
			panic(fmt.Sprintf("vscc: async engine rank %d lost completion after %d retries at cycle %d: %s",
				e.r.ID(), stalls-1, e.r.Now(), e.describeStalled()))
		}
		dev, _, _ := e.r.MPBOf(e.r.ID())
		ip.faults.RecordRecovery("async-retry", "vscc.async", dev)
		e.rearmStalled()
		budget *= 2
	}
}

// lostPeerDev returns the lowest currently-lost device among the
// stalled queue heads' peers, or -1.
func (e *AsyncEngine) lostPeerDev() int {
	if e.ip.mem == nil {
		return -1
	}
	lost := -1
	for _, q := range e.heads() {
		if d := e.r.Session().PlaceOf(q.peer).Dev; e.ip.mem.Lost(d) && (lost < 0 || d < lost) {
			lost = d
		}
	}
	return lost
}

// rearmStalled re-issues the newest vDMA command of every blocked send
// head and republishes every blocked receiver's outstanding grant, so a
// lost programming write or a lost credit flag cannot wedge the engine.
// Degraded pairs are skipped: their counters are written directly and a
// stale re-issued command could overwrite newer values.
func (e *AsyncEngine) rearmStalled() {
	dev, _, _ := e.r.MPBOf(e.r.ID())
	for _, q := range e.heads() {
		switch {
		case !q.send:
			e.publishGrant(q)
		case q.haveCmd && !e.ip.degraded(e.r, q.peer):
			e.ip.faults.RecordRecovery("vdma-rearm", "vscc.async", dev)
			e.ip.mmio(e.r, q.cmd)
		}
	}
}

// describeStalled renders the blocked queue heads deterministically for
// the lost-completion failure.
func (e *AsyncEngine) describeStalled() string {
	var parts []string
	for _, q := range e.heads() {
		dir := "recv<-"
		if q.send {
			dir = "send->"
		}
		parts = append(parts, fmt.Sprintf("%s%d %s seq %d of %d..%d", dir, q.peer, asyncStateNames[q.state], q.seq, q.firstSeq, q.lastSeq))
	}
	if len(parts) == 0 {
		return "no queued requests"
	}
	return strings.Join(parts, "; ")
}

var asyncStateNames = [...]string{
	asWaitGrant: "wait-grant",
	asWaitSlot:  "wait-slot",
	asWaitDrain: "wait-drain",
	arWaitData:  "wait-data",
	asDone:      "done",
}

// Pending reports incomplete requests.
func (e *AsyncEngine) Pending() int {
	n := 0
	for _, m := range e.queues() {
		for _, q := range m {
			n += len(q)
		}
	}
	return n
}

// anyActionable peeks all stalled heads without yielding, closing the
// race between the last poll and sleeping.
func (e *AsyncEngine) anyActionable() bool {
	for _, q := range e.heads() {
		if q.flagReady() {
			return true
		}
	}
	return false
}

// flagReady peeks whether the request's current wait condition holds.
func (q *AsyncRequest) flagReady() bool {
	r := q.eng.r
	switch q.state {
	case asWaitGrant:
		return reached(r.PeekFlagByte(rcce.FlagGrant, q.peer), q.seq)
	case asWaitSlot:
		return reached(r.PeekFlagByte(rcce.FlagDMAC, q.peer), q.seq-2)
	case asWaitDrain:
		return r.PeekFlagByte(rcce.FlagReady, q.peer) == seqVal(q.lastSeq)
	case arWaitData:
		return reached(r.PeekFlagByte(rcce.FlagSent, q.peer), q.seq)
	}
	return false
}

// push advances the request while its conditions hold; returns whether
// any step was taken.
func (q *AsyncRequest) push() bool {
	progressed := false
	for q.state != asDone && q.flagReady() {
		q.step()
		progressed = true
	}
	return progressed
}

// step performs one state transition (the flag condition holds), with
// the chunk moves of the blocking protocol: putAndProgram on the send
// side, drainAndAck on the receive side.
func (q *AsyncRequest) step() {
	e := q.eng
	r := e.r
	ctx := r.Ctx()
	if q.send && q.state == asWaitGrant && q.seq-q.firstSeq >= 2 {
		q.state = asWaitSlot
		return
	}
	ctx.Delay(ctx.Params().FlagPollCycles)
	if q.state == asWaitDrain {
		r.Session().ReportTraffic(r.ID(), q.peer, q.total)
		q.state = asDone
		return
	}
	n := min(len(q.rest), e.ip.slot)
	chunk := q.rest[:n]
	q.rest = q.rest[n:]
	if q.send {
		q.cmd, q.haveCmd = e.ip.putAndProgram(r, q.peer, q.seq, chunk), true
	} else {
		e.ip.drainAndAck(r, q.peer, q.seq, chunk)
	}
	switch {
	case len(q.rest) == 0 && q.send:
		q.state = asWaitDrain
	case len(q.rest) == 0:
		q.state = asDone
	case q.send:
		q.seq++
		q.state = asWaitGrant
	default:
		q.seq++
		e.publishGrant(q) // the credit for the next chunk
	}
}

func asyncSortedPeers(m map[int][]*AsyncRequest) []int {
	peers := make([]int, 0, len(m))
	for p, q := range m {
		if len(q) > 0 {
			peers = append(peers, p)
		}
	}
	sort.Ints(peers)
	return peers
}
