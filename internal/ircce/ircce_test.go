package ircce

import (
	"bytes"
	"testing"
	"testing/quick"

	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

func newSession(t testing.TB, n int, opts ...rcce.Option) *rcce.Session {
	t.Helper()
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, err := rcce.LinearPlaces([]*scc.Chip{chip}, n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rcce.NewSession(k, []*scc.Chip{chip}, places, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func TestPipelinedRoundTrip(t *testing.T) {
	for _, size := range []int{1, 100, 4096, 4097, 8192, 40000} {
		size := size
		s := newSession(t, 2, rcce.WithProtocol(&PipelinedProtocol{}))
		msg := pattern(size, byte(size))
		got := make([]byte, size)
		err := s.Run(func(r *rcce.Rank) {
			if r.ID() == 0 {
				r.Send(1, msg)
			} else {
				r.Recv(0, got)
			}
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: payload corrupted", size)
		}
	}
}

func TestPipelinedRepeatedMessages(t *testing.T) {
	// Counters run across messages; 300+ packets force the mod-256 wrap.
	s := newSession(t, 2, rcce.WithProtocol(&PipelinedProtocol{Threshold: 1024}))
	const rounds = 40
	const size = 10 * 1024 // 10 packets per message -> 400 packets total
	err := s.Run(func(r *rcce.Rank) {
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(1, pattern(size, byte(i)))
			} else {
				got := make([]byte, size)
				r.Recv(0, got)
				if !bytes.Equal(got, pattern(size, byte(i))) {
					t.Errorf("round %d corrupted", i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedInterleavesPutAndGet(t *testing.T) {
	// The defining property of Fig. 2b: put of packet i+1 overlaps get of
	// packet i.
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, _ := rcce.LinearPlaces([]*scc.Chip{chip}, 2)
	tl := sim.NewTimeline(k)
	s, err := rcce.NewSession(k, []*scc.Chip{chip}, places,
		rcce.WithProtocol(&PipelinedProtocol{Threshold: 1024}),
		rcce.WithTimeline(tl))
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(32*1024, 1)
	err = s.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(1, msg)
		} else {
			r.Recv(0, make([]byte, len(msg)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Overlap("put", "get") {
		t.Error("pipelined protocol did not interleave put and get")
	}
}

func TestPipelinedFasterThanBlockingForLargeMessages(t *testing.T) {
	measure := func(p rcce.Protocol) sim.Cycles {
		var opts []rcce.Option
		if p != nil {
			opts = append(opts, rcce.WithProtocol(p))
		}
		s := newSession(t, 2, opts...)
		msg := pattern(128*1024, 7)
		var done sim.Cycles
		err := s.Run(func(r *rcce.Rank) {
			if r.ID() == 0 {
				r.Send(1, msg)
			} else {
				r.Recv(0, make([]byte, len(msg)))
				done = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	blocking := measure(nil)
	pipelined := measure(&PipelinedProtocol{})
	if pipelined >= blocking {
		t.Errorf("pipelined (%d cycles) not faster than blocking (%d) for 128KB", pipelined, blocking)
	}
}

func TestPacketBytesClipping(t *testing.T) {
	pp := &PipelinedProtocol{}
	pk := pp.packetBytes()
	if pk <= 0 || pk%32 != 0 {
		t.Errorf("default packet %d not line aligned", pk)
	}
	if pk > rcce.PayloadBytes/2 {
		t.Errorf("packet %d exceeds half the payload area (%d)", pk, rcce.PayloadBytes/2)
	}
	big := &PipelinedProtocol{Threshold: 1 << 20}
	if big.packetBytes() > rcce.PayloadBytes/2 {
		t.Error("oversized threshold not clipped")
	}
	tiny := &PipelinedProtocol{Threshold: 1}
	if tiny.packetBytes() != 32 {
		t.Errorf("tiny threshold = %d, want 32", tiny.packetBytes())
	}
}

func TestIsendIrecvBasic(t *testing.T) {
	s := newSession(t, 2)
	msg := pattern(5000, 3)
	got := make([]byte, len(msg))
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		if r.ID() == 0 {
			q, err := eng.Isend(1, msg)
			if err != nil {
				t.Error(err)
				return
			}
			eng.WaitAll(q)
		} else {
			q, err := eng.Irecv(0, got)
			if err != nil {
				t.Error(err)
				return
			}
			eng.WaitAll(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("isend/irecv corrupted payload")
	}
}

func TestIsendReturnsBeforeCompletion(t *testing.T) {
	// Non-blocking semantics: Isend of a large message returns while the
	// receiver has not even posted its receive.
	s := newSession(t, 2)
	var isendReturned, recvPosted sim.Cycles
	msg := pattern(60*1024, 1)
	got := make([]byte, len(msg))
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		if r.ID() == 0 {
			q, _ := eng.Isend(1, msg)
			isendReturned = r.Now()
			eng.WaitAll(q)
		} else {
			r.Ctx().Delay(2_000_000)
			recvPosted = r.Now()
			q, _ := eng.Irecv(0, got)
			eng.WaitAll(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if isendReturned >= recvPosted {
		t.Errorf("isend returned at %d, after recv posted at %d — not non-blocking", isendReturned, recvPosted)
	}
	if !bytes.Equal(got, msg) {
		t.Error("payload corrupted")
	}
}

func TestBidirectionalExchangeNoDeadlock(t *testing.T) {
	// The motivating use case: both ranks isend+irecv simultaneously —
	// blocking sends would deadlock for multi-chunk messages.
	s := newSession(t, 2)
	const size = 30 * 1024
	got := [2][]byte{make([]byte, size), make([]byte, size)}
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		me := r.ID()
		peer := 1 - me
		sq, _ := eng.Isend(peer, pattern(size, byte(me)))
		rq, _ := eng.Irecv(peer, got[me])
		eng.WaitAll(sq, rq)
	})
	if err != nil {
		t.Fatal(err)
	}
	for me := 0; me < 2; me++ {
		if !bytes.Equal(got[me], pattern(size, byte(1-me))) {
			t.Errorf("rank %d exchange corrupted", me)
		}
	}
}

func TestMultipleRequestsFIFOPerPeer(t *testing.T) {
	s := newSession(t, 2)
	sizes := []int{100, 9000, 32, 20000}
	got := make([][]byte, len(sizes))
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		if r.ID() == 0 {
			var reqs []*Request
			for i, sz := range sizes {
				q, _ := eng.Isend(1, pattern(sz, byte(i)))
				reqs = append(reqs, q)
			}
			eng.WaitAll(reqs...)
		} else {
			var reqs []*Request
			for i, sz := range sizes {
				got[i] = make([]byte, sz)
				q, _ := eng.Irecv(0, got[i])
				reqs = append(reqs, q)
			}
			eng.WaitAll(reqs...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		if !bytes.Equal(got[i], pattern(sz, byte(i))) {
			t.Errorf("message %d corrupted", i)
		}
	}
}

func TestTestPolling(t *testing.T) {
	s := newSession(t, 2)
	msg := pattern(1000, 5)
	got := make([]byte, len(msg))
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		if r.ID() == 0 {
			r.Ctx().Delay(100_000)
			q, _ := eng.Isend(1, msg)
			eng.WaitAll(q)
		} else {
			q, _ := eng.Irecv(0, got)
			polls := 0
			for eng.Push(); !q.Done(); eng.Push() {
				polls++
				r.Ctx().Delay(10_000) // do "useful work" between polls
			}
			if polls == 0 {
				t.Error("the receive completed before the sender even started")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("payload corrupted")
	}
}

func TestZeroSizeRequests(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		if r.ID() == 0 {
			q, err := eng.Isend(1, nil)
			if err != nil || !q.Done() {
				t.Errorf("zero-size isend: err=%v done=%v", err, q.Done())
			}
		} else {
			q, err := eng.Irecv(0, nil)
			if err != nil || !q.Done() {
				t.Errorf("zero-size irecv: err=%v done=%v", err, q.Done())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// No stray flags: a follow-up normal message must still work.
}

func TestSelfRequestRejected(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *rcce.Rank) {
		if r.ID() != 0 {
			return
		}
		eng := New(r)
		if _, err := eng.Isend(0, []byte{1}); err == nil {
			t.Error("isend to self should error")
		}
		if _, err := eng.Irecv(0, make([]byte, 1)); err == nil {
			t.Error("irecv from self should error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingCount(t *testing.T) {
	// Two sends to different peers share the rank's one send buffer: they
	// must both count as pending, and neither may overwrite the other's
	// chunk in the MPB.
	s := newSession(t, 3)
	got := [3][]byte{nil, make([]byte, 20000), make([]byte, 20000)}
	err := s.Run(func(r *rcce.Rank) {
		eng := New(r)
		switch r.ID() {
		case 0:
			q1, _ := eng.Isend(1, pattern(20000, 1))
			q2, _ := eng.Isend(2, pattern(20000, 2))
			if eng.Pending() != 2 {
				t.Errorf("pending = %d with two unmatched sends", eng.Pending())
			}
			eng.WaitAll(q1, q2)
			if eng.Pending() != 0 {
				t.Errorf("pending = %d after waitall", eng.Pending())
			}
		case 1:
			r.Ctx().Delay(50_000)
			r.Recv(0, got[1])
		case 2:
			r.Ctx().Delay(90_000)
			r.Recv(0, got[2])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for peer := 1; peer <= 2; peer++ {
		if !bytes.Equal(got[peer], pattern(20000, byte(peer))) {
			t.Errorf("send to rank %d corrupted by the concurrent one", peer)
		}
	}
}

func TestEngineInteropWithBlockingPeer(t *testing.T) {
	// The engine speaks the same wire protocol as blocking Send/Recv, so
	// one side may use requests while the other blocks.
	s := newSession(t, 2)
	msg := pattern(12345, 9)
	got := make([]byte, len(msg))
	err := s.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			eng := New(r)
			q, _ := eng.Isend(1, msg)
			eng.WaitAll(q)
		} else {
			r.Recv(0, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("interop payload corrupted")
	}
}

// Property: random bidirectional request batches complete and round-trip
// intact.
func TestPropertyRequestBatches(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 6 {
			sizesRaw = sizesRaw[:6]
		}
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s)%15000 + 1
		}
		s := newSession(t, 2)
		ok := true
		err := s.Run(func(r *rcce.Rank) {
			eng := New(r)
			me := r.ID()
			peer := 1 - me
			var reqs []*Request
			bufs := make([][]byte, len(sizes))
			for i, sz := range sizes {
				sq, _ := eng.Isend(peer, pattern(sz, byte(i+me)))
				bufs[i] = make([]byte, sz)
				rq, _ := eng.Irecv(peer, bufs[i])
				reqs = append(reqs, sq, rq)
			}
			eng.WaitAll(reqs...)
			for i, sz := range sizes {
				if !bytes.Equal(bufs[i], pattern(sz, byte(i+peer))) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
