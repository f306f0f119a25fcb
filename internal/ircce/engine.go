package ircce

import (
	"fmt"
	"sort"

	"vscc/internal/rcce"
)

// Engine provides non-blocking Isend/Irecv for one rank — iRCCE's
// requests on-chip and the paper's future work ("extend our communication
// concept to accelerate asynchronous communication", §5) between devices.
// Progress is cooperative: request state machines advance only inside
// WaitAll or Push — exactly like iRCCE on the bare-metal SCC,
// which has no background thread to drive communication.
//
// The kind of a request follows from where the peer sits, never from an
// option: a peer on the rank's own device is reached by the clear-based
// RCCE handshake, a peer on another device by whatever non-blocking
// transfer the session's wire protocol offers (vscc: the vDMA scheme).
//
// A rank has one send buffer — its own MPB payload area, which a send of
// either kind puts into — so sends progress one at a time, in posting
// order (iRCCE's single isend queue); receives queue per source. The
// host lands a cross-device receive in that same area: the only send that
// may be in flight with it is the one to the same peer (a symmetric
// exchange, whose two directions the host moves in lockstep), and two
// cross-device receives must not overlap.
//
// Requirements, mirroring the C library's: on-chip pairs must run the
// blocking DefaultProtocol (counter-based protocols use the same flag
// bytes with incompatible semantics), blocking Send/Recv must not be
// mixed with outstanding requests to the same peer, and messages between
// a rank pair match in FIFO order (RCCE has no tags).
type Engine struct {
	r     *rcce.Rank
	sendQ []*Request
	recvQ map[int][]*Request
}

// New creates a request engine for rank r.
func New(r *rcce.Rank) *Engine {
	return &Engine{r: r, recvQ: map[int][]*Request{}}
}

// Transfer is the wire-level state machine of one request. The engine
// drives only the head of each queue: while Ready holds it calls
// Step, until Done.
type Transfer interface {
	// Ready peeks, without yielding simulated time, whether the flag the
	// next step waits for has arrived.
	Ready() bool
	// Step takes that step. Ready held when it is called.
	Step()
	Done() bool
}

// crossDevice is implemented by wire protocols that offer non-blocking
// transfers between devices (vscc).
type crossDevice interface {
	// NewTransfer starts the transfer of buf (never empty) with peer, or
	// reports why the protocol's configuration has none.
	NewTransfer(r *rcce.Rank, send bool, peer int, buf []byte) (Transfer, error)
	// AwaitChange parks r until a store lands in its tile — the only way
	// a flag can change — after stalls consecutive sleeps that ended in a
	// timeout without progress, and returns the new count. The protocol
	// owns the sleep because it owns what a timeout means: stalled holds
	// the cross-device queue heads it may have to re-arm or give up on.
	AwaitChange(r *rcce.Rank, stalled []Transfer, stalls int) int
}

// Request is one outstanding non-blocking operation.
type Request struct {
	t Transfer // nil: a zero-size message, complete without flag traffic
}

// Done reports completion without progressing the request.
func (q *Request) Done() bool { return q.t == nil || q.t.Done() }

// Isend starts a non-blocking send to dest and attempts immediate
// progress.
func (e *Engine) Isend(dest int, data []byte) (*Request, error) {
	if dest == e.r.ID() {
		return nil, fmt.Errorf("ircce: isend to self on rank %d", dest)
	}
	q, err := e.newRequest(true, dest, data)
	if err == nil && !q.Done() {
		e.sendQ = append(e.sendQ, q)
		e.Push()
	}
	return q, err
}

// Irecv starts a non-blocking receive from src and attempts immediate
// progress.
func (e *Engine) Irecv(src int, buf []byte) (*Request, error) {
	if src == e.r.ID() {
		return nil, fmt.Errorf("ircce: irecv from self on rank %d", src)
	}
	q, err := e.newRequest(false, src, buf)
	if err == nil && !q.Done() {
		e.recvQ[src] = append(e.recvQ[src], q)
		e.Push()
	}
	return q, err
}

// newRequest picks the request's kind from where the peer sits.
func (e *Engine) newRequest(send bool, peer int, buf []byte) (*Request, error) {
	if len(buf) == 0 {
		return &Request{}, nil
	}
	if e.r.Session().SameDevice(e.r.ID(), peer) {
		return &Request{t: &onChip{r: e.r, send: send, peer: peer, rest: buf, total: len(buf)}}, nil
	}
	xd, ok := e.r.Session().Protocol().(crossDevice)
	if !ok {
		return nil, fmt.Errorf("ircce: rank %d is on another device and protocol %q has no non-blocking transfer between devices",
			peer, e.r.Session().Protocol().Name())
	}
	t, err := xd.NewTransfer(e.r, send, peer, buf)
	if err != nil {
		return nil, err
	}
	return &Request{t: t}, nil
}

// sources lists the ranks with a receive queued, ascending: with the send
// queue visited first that is the one order every scan uses, which keeps
// the simulation deterministic.
func (e *Engine) sources() []int {
	srcs := make([]int, 0, len(e.recvQ))
	for src, q := range e.recvQ {
		if len(q) > 0 {
			srcs = append(srcs, src)
		}
	}
	sort.Ints(srcs)
	return srcs
}

// heads returns the head of every non-empty queue.
func (e *Engine) heads() []*Request {
	var heads []*Request
	if len(e.sendQ) > 0 {
		heads = append(heads, e.sendQ[0])
	}
	for _, src := range e.sources() {
		heads = append(heads, e.recvQ[src][0])
	}
	return heads
}

// Push advances every queue head as far as possible without blocking and
// reports whether anything progressed (iRCCE_push).
func (e *Engine) Push() bool {
	var progressed bool
	e.sendQ, progressed = pushQueue(e.sendQ)
	for _, src := range e.sources() {
		var p bool
		e.recvQ[src], p = pushQueue(e.recvQ[src])
		progressed = progressed || p
	}
	return progressed
}

// pushQueue steps the head of q while its flags have arrived; a
// completed head makes way for the next request at once. It returns what
// is left of the queue and whether any step was taken.
func pushQueue(q []*Request) ([]*Request, bool) {
	progressed := false
	for len(q) > 0 && q[0].t.Ready() {
		q[0].t.Step()
		progressed = true
		if q[0].t.Done() {
			q = q[1:]
		}
	}
	return q, progressed
}

// WaitAll blocks until every given request completes (iRCCE_wait),
// sleeping on local MPB changes between progress attempts.
func (e *Engine) WaitAll(reqs ...*Request) {
	stalls := 0
	for !allDone(reqs) {
		if e.Push() {
			stalls = 0
			continue
		}
		// Nothing progressed: every head is waiting on a local flag.
		// Re-check those flags without yielding — that closes the race
		// between the last poll and going to sleep — then sleep until any
		// store lands in our tile.
		var stalled []Transfer // the cross-device heads
		ready := false
		for _, h := range e.heads() {
			ready = ready || h.t.Ready()
			if _, local := h.t.(*onChip); !local {
				stalled = append(stalled, h.t)
			}
		}
		switch {
		case ready:
		case len(stalled) > 0:
			stalls = e.r.Session().Protocol().(crossDevice).AwaitChange(e.r, stalled, stalls)
		default:
			e.r.WaitAnyLocalChangeFor(0)
		}
	}
}

func allDone(reqs []*Request) bool {
	for _, q := range reqs {
		if !q.Done() {
			return false
		}
	}
	return true
}

// Pending reports the number of incomplete requests.
//
//lint:ignore deadexport vscc's async tests check that a refused or finished request leaves nothing queued
func (e *Engine) Pending() int {
	n := len(e.sendQ)
	for _, q := range e.recvQ {
		n += len(q)
	}
	return n
}

// onChip is the clear-based RCCE handshake toward a peer on the rank's
// own device, one chunk of the MPB payload area in flight: the sender
// puts a chunk into its own MPB and raises sent, the receiver fetches
// it and raises ready.
type onChip struct {
	r    *rcce.Rank
	send bool
	peer int

	rest  []byte // unsent payload (send) or unfilled buffer (recv)
	total int    // payload bytes, for traffic reporting

	waitingAck bool // send: a chunk is in the MPB awaiting the ready flag
	done       bool
}

func (t *onChip) Done() bool { return t.done }

func (t *onChip) Ready() bool {
	if !t.send {
		return t.r.PeekSent(t.peer)
	}
	return !t.waitingAck || t.r.PeekReady(t.peer)
}

// Step consumes the flag Ready saw and moves one chunk: a sender clears
// the acknowledgement of its previous chunk and puts the next, a
// receiver clears sent, gets the chunk and acknowledges it.
func (t *onChip) Step() {
	r := t.r
	ctx := r.Ctx()
	n := min(len(t.rest), rcce.ChunkBytes)
	if !t.send {
		srcDev, srcTile, srcBase := r.MPBOf(t.peer)
		ctx.Delay(ctx.Params().FlagPollCycles)
		r.ClearSent(t.peer)
		ctx.InvalidateMPB()
		ctx.ReadMPB(srcDev, srcTile, srcBase, t.rest[:n])
		ctx.CopyPrivate(n)
		r.SignalReady(t.peer)
		t.rest = t.rest[n:]
		t.done = len(t.rest) == 0
		return
	}
	if t.waitingAck {
		ctx.Delay(ctx.Params().FlagPollCycles)
		r.ClearReady(t.peer)
		t.waitingAck = false
		if len(t.rest) == 0 {
			t.done = true
			r.Session().ReportTraffic(r.ID(), t.peer, t.total)
			return
		}
	}
	myDev, myTile, myBase := r.MPBOf(r.ID())
	ctx.CopyPrivate(n)
	ctx.WriteMPB(myDev, myTile, myBase, t.rest[:n])
	ctx.FlushWCB()
	r.SignalSent(t.peer)
	t.rest = t.rest[n:]
	t.waitingAck = true
}
