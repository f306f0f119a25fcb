package rcce

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// newSession builds a single-chip session with n ranks on ascending cores.
func newSession(t testing.TB, n int, opts ...Option) *Session {
	t.Helper()
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, err := LinearPlaces([]*scc.Chip{chip}, n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(k, []*scc.Chip{chip}, places, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestSendRecvSmall(t *testing.T) {
	s := newSession(t, 2)
	msg := []byte("hello scc")
	got := make([]byte, len(msg))
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(1, msg); err != nil {
				t.Error(err)
			}
		case 1:
			if err := r.Recv(0, got); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q, want %q", got, msg)
	}
}

func TestSendRecvMultiChunk(t *testing.T) {
	// A 20 KB message splits into three chunks (paper: messages that do
	// not fit into the MPB are transferred consecutively).
	s := newSession(t, 2)
	msg := pattern(20*1024, 3)
	got := make([]byte, len(msg))
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, msg)
		case 1:
			r.Recv(0, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("multi-chunk payload corrupted")
	}
}

func TestSendRecvExactChunkBoundary(t *testing.T) {
	for _, size := range []int{ChunkBytes - 1, ChunkBytes, ChunkBytes + 1, 2 * ChunkBytes} {
		size := size
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			s := newSession(t, 2)
			msg := pattern(size, byte(size))
			got := make([]byte, size)
			err := s.Run(func(r *Rank) {
				if r.ID() == 0 {
					r.Send(1, msg)
				} else {
					r.Recv(0, got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Error("payload corrupted at chunk boundary")
			}
		})
	}
}

func TestSendBlocksUntilRecv(t *testing.T) {
	// Blocking semantics: the send must not complete before the receiver
	// has drained the message (paper §2.2).
	s := newSession(t, 2)
	var sendDone, recvStart sim.Cycles
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, make([]byte, 1024))
			sendDone = r.Now()
		} else {
			r.Ctx().Delay(500_000) // receiver is late
			recvStart = r.Now()
			r.Recv(0, make([]byte, 1024))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < recvStart {
		t.Errorf("send completed at %d before receive started at %d", sendDone, recvStart)
	}
}

func TestBidirectionalPairsNoDeadlockOrdered(t *testing.T) {
	// Classic exchange with rank-ordered send/recv.
	s := newSession(t, 2)
	a, b := pattern(4096, 1), pattern(4096, 2)
	gota, gotb := make([]byte, 4096), make([]byte, 4096)
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, a)
			r.Recv(1, gotb)
		} else {
			r.Recv(0, gota)
			r.Send(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gota, a) || !bytes.Equal(gotb, b) {
		t.Error("exchange corrupted payloads")
	}
}

func TestRingAllRanks(t *testing.T) {
	const n = 8
	s := newSession(t, n)
	results := make([][]byte, n)
	err := s.Run(func(r *Rank) {
		me := r.ID()
		msg := pattern(2048, byte(me))
		got := make([]byte, 2048)
		next := (me + 1) % n
		prev := (me + n - 1) % n
		if me%2 == 0 {
			r.Send(next, msg)
			r.Recv(prev, got)
		} else {
			r.Recv(prev, got)
			r.Send(next, msg)
		}
		results[me] = got
	})
	if err != nil {
		t.Fatal(err)
	}
	for me := 0; me < n; me++ {
		prev := (me + n - 1) % n
		if !bytes.Equal(results[me], pattern(2048, byte(prev))) {
			t.Errorf("rank %d got wrong ring payload", me)
		}
	}
}

func TestSendToSelfRejected(t *testing.T) {
	s := newSession(t, 2)
	var sendErr, recvErr error
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			sendErr = r.Send(0, []byte{1})
			recvErr = r.Recv(0, make([]byte, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendErr == nil || recvErr == nil {
		t.Error("self send/recv should error")
	}
}

func TestPutGetGory(t *testing.T) {
	s := newSession(t, 2)
	data := pattern(512, 9)
	got := make([]byte, 512)
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Put(1, 64, data) // one-sided put into rank 1's MPB
			r.SignalSent(1)
		case 1:
			r.AwaitSentFor(0, 0)
			r.Get(1, 64, got) // read own MPB
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("gory put/get corrupted data")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 16
	s := newSession(t, n)
	after := make([]sim.Cycles, n)
	var latest sim.Cycles
	err := s.Run(func(r *Rank) {
		// Rank i works i*10000 cycles, so arrival times spread widely.
		r.Ctx().Delay(sim.Cycles(r.ID()) * 10_000)
		if t0 := r.Now(); t0 > latest {
			latest = t0
		}
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range after {
		if a < latest {
			t.Errorf("rank %d left the barrier at %d, before the last arrival at %d", i, a, latest)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	const n, rounds = 6, 30
	s := newSession(t, n)
	counts := make([]int, n)
	err := s.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Barrier()
			counts[r.ID()]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Errorf("rank %d completed %d barriers, want %d", i, c, rounds)
		}
	}
}

func TestBcast(t *testing.T) {
	const n = 7
	s := newSession(t, n)
	payload := pattern(3000, 5)
	got := make([][]byte, n)
	err := s.Run(func(r *Rank) {
		buf := make([]byte, len(payload))
		if r.ID() == 2 {
			copy(buf, payload)
		}
		if err := r.Bcast(2, buf); err != nil {
			t.Error(err)
		}
		got[r.ID()] = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], payload) {
			t.Errorf("rank %d bcast payload wrong", i)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 5
	s := newSession(t, n)
	results := make([][]float64, n)
	err := s.Run(func(r *Rank) {
		vec := []float64{float64(r.ID()), 1, -float64(r.ID())}
		if err := r.Allreduce(OpSum, vec); err != nil {
			t.Error(err)
		}
		results[r.ID()] = vec
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 5, -10} // sum of 0..4
	for i, vec := range results {
		for j := range want {
			if vec[j] != want[j] {
				t.Errorf("rank %d allreduce[%d] = %v, want %v", i, j, vec[j], want[j])
			}
		}
	}
}

func TestReduceMax(t *testing.T) {
	const n = 4
	s := newSession(t, n)
	var got []float64
	err := s.Run(func(r *Rank) {
		vec := []float64{float64(r.ID() * r.ID())}
		if err := r.Reduce(0, OpMax, vec); err != nil {
			t.Error(err)
		}
		if r.ID() == 0 {
			got = vec
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("max = %v, want 9", got[0])
	}
}

// LinearPlaces fills device 0's cores in order, then device 1's from
// rank 48, and refuses more ranks than the devices have cores.
func TestLinearPlaces(t *testing.T) {
	k := sim.NewKernel()
	chips := []*scc.Chip{scc.NewChip(k, 0, scc.DefaultParams()), scc.NewChip(k, 1, scc.DefaultParams())}
	places, err := LinearPlaces(chips, 96)
	if err != nil {
		t.Fatal(err)
	}
	for rank, pl := range places {
		if want := (Place{Dev: rank / 48, Core: rank % 48}); pl != want {
			t.Fatalf("rank %d at %+v, want %+v", rank, pl, want)
		}
	}
	if _, err := LinearPlaces(chips, 97); err == nil {
		t.Error("requesting more ranks than available cores should fail")
	}
}

func TestSessionValidation(t *testing.T) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	chips := []*scc.Chip{chip}
	if _, err := NewSession(k, chips, nil); err == nil {
		t.Error("empty session should fail")
	}
	if _, err := NewSession(k, chips, []Place{{Dev: 1, Core: 0}}); err == nil {
		t.Error("unknown device should fail")
	}
	if _, err := NewSession(k, chips, []Place{{Dev: 0, Core: 99}}); err == nil {
		t.Error("invalid core should fail")
	}
	if _, err := NewSession(k, chips, []Place{{Dev: 0, Core: 3}, {Dev: 0, Core: 3}}); err == nil {
		t.Error("duplicate placement should fail")
	}
}

func TestTrafficObserver(t *testing.T) {
	var events []string
	s := newSession(t, 3, WithTrafficObserver(func(src, dest, bytes int) {
		events = append(events, fmt.Sprintf("%d->%d:%d", src, dest, bytes))
	}))
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, make([]byte, 100))
			r.Send(2, make([]byte, 200))
		case 1:
			r.Recv(0, make([]byte, 100))
		case 2:
			r.Recv(0, make([]byte, 200))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("observed %d messages, want 2: %v", len(events), events)
	}
}

// phaseSpans reads the spans of a timeline sink back through its Chrome
// export.
func phaseSpans(t *testing.T, tl *trace.Sink) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, []trace.Capture{{Sink: tl}}); err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans []trace.Event
	for _, ev := range evs {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

func TestTimelineRecordsProtocolPhases(t *testing.T) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, _ := LinearPlaces([]*scc.Chip{chip}, 2)
	tl := trace.NewSink(k)
	s, err := NewSession(k, []*scc.Chip{chip}, places, WithTimeline(tl))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, make([]byte, 4096))
		} else {
			r.Recv(0, make([]byte, 4096))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var puts, gets []trace.Event
	for _, sp := range phaseSpans(t, tl) {
		switch sp.Name {
		case "put":
			puts = append(puts, sp)
		case "get":
			gets = append(gets, sp)
		}
	}
	if len(puts) == 0 || len(gets) == 0 {
		t.Fatalf("timeline missing phases: %d puts, %d gets", len(puts), len(gets))
	}
	// Fig 2a semantics: in the blocking protocol the receiver's get
	// strictly follows the sender's put (no pipelining).
	for _, p := range puts {
		for _, g := range gets {
			if p.Ts < g.Ts+g.Dur && g.Ts < p.Ts+p.Dur {
				t.Errorf("blocking put %+v overlaps get %+v", p, g)
			}
		}
	}
}

// Phase records [from, now] on track ("rcce", actor), an instant
// stamped at the current cycle when from is now.
func TestPhaseMarkUsesNow(t *testing.T) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	places, _ := LinearPlaces([]*scc.Chip{chip}, 1)
	tl := trace.NewSink(k)
	s, err := NewSession(k, []*scc.Chip{chip}, places, WithTimeline(tl))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(r *Rank) {
		r.Ctx().Delay(77)
		r.Phase("sender", "put", 10)
		r.Phase("sender", "dma-armed", r.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	got := phaseSpans(t, tl)
	if len(got) != 2 || got[0].Name != "put" || got[0].Ts != 10 || got[0].Dur != 67 ||
		got[1].Name != "dma-armed" || got[1].Ts != 77 || got[1].Dur != 0 {
		t.Errorf("phases = %+v, want put [10,77] and instant dma-armed at 77", got)
	}
	if out := tl.Timeline(10); !strings.HasPrefix(out, "timeline 10..77") || !strings.Contains(out, "\nsender ") {
		t.Errorf("track not named after the actor:\n%s", out)
	}
}

// Without a timeline Phase does nothing and allocates nothing.
func TestPhaseNilSafe(t *testing.T) {
	var allocs float64
	err := newSession(t, 1).Run(func(r *Rank) {
		allocs = testing.AllocsPerRun(100, func() { r.Phase("sender", "put", 0) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Phase without a timeline allocates %.1f, want 0", allocs)
	}
}

// Property: arbitrary message sizes round-trip intact between any two
// ranks of an 8-rank session.
func TestPropertySendRecvIntegrity(t *testing.T) {
	f := func(sz uint16, seed byte, srcSel, destSel uint8) bool {
		size := int(sz)%17000 + 1
		src := int(srcSel) % 8
		dest := int(destSel) % 8
		if src == dest {
			dest = (dest + 1) % 8
		}
		s := newSession(t, 8)
		msg := pattern(size, seed)
		got := make([]byte, size)
		err := s.Run(func(r *Rank) {
			if r.ID() == src {
				r.Send(dest, msg)
			} else if r.ID() == dest {
				r.Recv(src, got)
			}
		})
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: back-to-back messages preserve order and content.
func TestPropertyMessageSequence(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 10 {
			sizes = sizes[:10]
		}
		s := newSession(t, 2)
		ok := true
		err := s.Run(func(r *Rank) {
			for i, szRaw := range sizes {
				size := int(szRaw)%9000 + 1
				if r.ID() == 0 {
					r.Send(1, pattern(size, byte(i)))
				} else {
					got := make([]byte, size)
					r.Recv(0, got)
					if !bytes.Equal(got, pattern(size, byte(i))) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
