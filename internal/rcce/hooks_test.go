package rcce

import (
	"testing"
)

func TestMPBOfMatchesPlacement(t *testing.T) {
	s := newSession(t, 4)
	err := s.Run(func(r *Rank) {
		for peer := 0; peer < 4; peer++ {
			dev, tile, base := r.MPBOf(peer)
			pl := s.PlaceOf(peer)
			if dev != pl.Dev || tile != pl.Core/2 {
				t.Errorf("MPBOf(%d) = (%d,%d,%d), placement %+v", peer, dev, tile, base, pl)
			}
			wantBase := 0
			if pl.Core%2 == 1 {
				wantBase = 8192
			}
			if base != wantBase {
				t.Errorf("MPBOf(%d) base = %d, want %d", peer, base, wantBase)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSignalAwaitHandshake(t *testing.T) {
	s := newSession(t, 2)
	var order []string
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Ctx().Delay(1000)
			order = append(order, "signal")
			r.SignalSent(1)
			r.AwaitReadyFor(1, 0)
			order = append(order, "acked")
		} else {
			r.AwaitSentFor(0, 0)
			order = append(order, "seen")
			r.SignalReady(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "signal" || order[1] != "seen" || order[2] != "acked" {
		t.Errorf("handshake order = %v", order)
	}
}

func TestPeekAndClearFlags(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			if r.PeekSent(1) {
				t.Error("sent flag raised before any signal")
			}
			r.Ctx().Delay(10_000) // let rank 1's signal land
			if !r.PeekSent(1) {
				t.Error("sent flag not visible after peer signal")
			}
			r.ClearSent(1)
			if r.PeekSent(1) {
				t.Error("sent flag survives clear")
			}
			if r.PeekReady(1) {
				t.Error("ready flag raised spuriously")
			}
			r.SignalReady(1) // release peer
		case 1:
			r.SignalSent(0)
			r.AwaitReadyFor(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlagByteAtDistinctSpaces(t *testing.T) {
	seen := map[int]bool{}
	for _, kind := range []int{FlagSent, FlagReady, FlagGrant, FlagDMAC} {
		for _, peer := range []int{0, 1, 255} {
			off := FlagByteAt(kind, peer)
			if off < PayloadBytes || off >= PayloadBytes+5*MaxRanks {
				t.Errorf("FlagByteAt(%d,%d) = %d outside the flag arrays", kind, peer, off)
			}
			if seen[off] {
				t.Errorf("flag byte collision at offset %d", off)
			}
			seen[off] = true
		}
	}
	if FlagByteAt(FlagDMAC, MaxRanks-1) >= PayloadBytes+flagBytes {
		t.Error("flag arrays exceed the MPB half")
	}
}

func TestFlagByteAtExactOffsets(t *testing.T) {
	// Pin the wire layout: sent, ready, grant and vDMA-completion arrays
	// sit above the payload area in that order (the barrier array lives
	// between ready and grant).
	cases := []struct {
		kind string
		got  int
		want int
	}{
		{"FlagSent", FlagByteAt(FlagSent, 7), PayloadBytes + 7},
		{"FlagReady", FlagByteAt(FlagReady, 7), PayloadBytes + MaxRanks + 7},
		{"FlagGrant", FlagByteAt(FlagGrant, 7), PayloadBytes + 3*MaxRanks + 7},
		{"FlagDMAC", FlagByteAt(FlagDMAC, 7), PayloadBytes + 4*MaxRanks + 7},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("FlagByteAt(%s, 7) = %d, want %d", c.kind, c.got, c.want)
		}
	}
}

func TestFlagByteAtPanicsOnBadKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad kind did not panic")
		}
	}()
	//lint:ignore bannedcall deliberately invalid kind to exercise the panic
	FlagByteAt(9, 0)
}

func TestPeekFlagByteZeroBeforeAnyStore(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		for _, kind := range []int{FlagSent, FlagReady, FlagGrant, FlagDMAC} {
			if v := r.PeekFlagByte(kind, 1); v != 0 {
				t.Errorf("PeekFlagByte(%d, 1) = %#x before any store", kind, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeekFlagByteReadsCounters(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Ctx().Delay(10_000)
			if v := r.PeekFlagByte(FlagGrant, 1); v != 0x5A {
				t.Errorf("grant byte = %#x, want 0x5A", v)
			}
		case 1:
			// Write a counter value into rank 0's grant slot for us.
			dev, tile, base := r.MPBOf(0)
			r.Ctx().WriteMPB(dev, tile, base+FlagByteAt(FlagGrant, 1), []byte{0x5A})
			r.Ctx().FlushWCB()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFloats(t *testing.T) {
	s := newSession(t, 2)
	want := []float64{3.14159, -2.71828, 0, 1e300}
	got := make([]float64, len(want))
	err := s.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := make([]byte, 8*len(want))
			encodeFloats(want, buf)
			if err := r.Send(1, buf); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 8*len(got))
			if err := r.Recv(0, buf); err != nil {
				t.Error(err)
			}
			decodeFloats(buf, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("floats[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReduceMin(t *testing.T) {
	s := newSession(t, 4)
	var got float64
	err := s.Run(func(r *Rank) {
		vec := []float64{float64(10 - r.ID())}
		if err := r.Reduce(0, OpMin, vec); err != nil {
			t.Error(err)
		}
		if r.ID() == 0 {
			got = vec[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("min = %v, want 7", got)
	}
}

func TestProtocolName(t *testing.T) {
	if (DefaultProtocol{}).Name() == "" {
		t.Error("empty protocol name")
	}
}
