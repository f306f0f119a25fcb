package rcce

import (
	"bytes"
	"testing"
)

func TestCommWorld(t *testing.T) {
	s := newSession(t, 6)
	err := s.Run(func(r *Rank) {
		w := r.commWorld()
		if w.size() != 6 {
			t.Errorf("world size = %d", w.size())
		}
		if w.rank(r) != r.ID() {
			t.Errorf("world rank %d != session rank %d", w.rank(r), r.ID())
		}
		if w.global(3) != 3 {
			t.Error("world global mapping wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSplitByParity(t *testing.T) {
	s := newSession(t, 8)
	err := s.Run(func(r *Rank) {
		c, err := r.commSplit(func(g int) (int, int) { return g % 2, g })
		if err != nil {
			t.Error(err)
			return
		}
		if c.size() != 4 {
			t.Errorf("rank %d: comm size = %d, want 4", r.ID(), c.size())
		}
		if c.rank(r) != r.ID()/2 {
			t.Errorf("rank %d: comm rank = %d, want %d", r.ID(), c.rank(r), r.ID()/2)
		}
		if c.global(c.rank(r)) != r.ID() {
			t.Error("global/comm rank round trip broken")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSplitKeyOrdering(t *testing.T) {
	s := newSession(t, 4)
	err := s.Run(func(r *Rank) {
		// Reverse ordering via keys: global rank g gets key -g.
		c, err := r.commSplit(func(g int) (int, int) { return 0, -g })
		if err != nil {
			t.Error(err)
			return
		}
		if c.global(0) != 3 || c.global(3) != 0 {
			t.Errorf("key ordering not honoured: %v", []int{c.global(0), c.global(1), c.global(2), c.global(3)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSendRecv(t *testing.T) {
	s := newSession(t, 6)
	msg := pattern(512, 5)
	got := make([]byte, 512)
	err := s.Run(func(r *Rank) {
		// Odd ranks form a communicator; comm rank 0 (global 1) sends to
		// comm rank 2 (global 5).
		if r.ID()%2 == 0 {
			return
		}
		c, err := r.commSplit(func(g int) (int, int) { return g % 2, g })
		if err != nil {
			t.Error(err)
			return
		}
		switch c.rank(r) {
		case 0:
			c.send(r, 2, msg)
		case 2:
			c.recv(r, 0, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("comm send/recv corrupted data")
	}
}

func TestCommBarrierOnlyBlocksMembers(t *testing.T) {
	s := newSession(t, 6)
	var nonMemberDone, memberDone uint64
	err := s.Run(func(r *Rank) {
		if r.ID()%2 == 1 {
			// Non-members proceed immediately.
			nonMemberDone++
			return
		}
		c, err := r.commSplit(func(g int) (int, int) { return g % 2, g })
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			r.Ctx().Delay(500_000) // late arrival
		}
		c.barrier(r)
		memberDone++
	})
	if err != nil {
		t.Fatal(err)
	}
	if nonMemberDone != 3 || memberDone != 3 {
		t.Errorf("done counts = %d/%d", nonMemberDone, memberDone)
	}
}

func TestCommAllreduce(t *testing.T) {
	s := newSession(t, 9)
	results := make([]float64, 9)
	err := s.Run(func(r *Rank) {
		// Three communicators of three ranks: rows of a 3x3 grid.
		c, err := r.commSplit(func(g int) (int, int) { return g / 3, g })
		if err != nil {
			t.Error(err)
			return
		}
		v := []float64{float64(r.ID())}
		if err := c.allreduce(r, OpSum, v); err != nil {
			t.Error(err)
			return
		}
		results[r.ID()] = v[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	// Row sums: 0+1+2=3, 3+4+5=12, 6+7+8=21.
	for g, want := range []float64{3, 3, 3, 12, 12, 12, 21, 21, 21} {
		if results[g] != want {
			t.Errorf("rank %d allreduce = %v, want %v", g, results[g], want)
		}
	}
}

func TestCommBcast(t *testing.T) {
	s := newSession(t, 6)
	payload := pattern(100, 7)
	oks := make([]bool, 6)
	err := s.Run(func(r *Rank) {
		c, err := r.commSplit(func(g int) (int, int) { return g % 2, g })
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(payload))
		if c.rank(r) == 1 {
			copy(buf, payload)
		}
		if err := c.bcast(r, 1, buf); err != nil {
			t.Error(err)
			return
		}
		oks[r.ID()] = bytes.Equal(buf, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, ok := range oks {
		if !ok {
			t.Errorf("rank %d bcast payload wrong", g)
		}
	}
}

func TestCommValidation(t *testing.T) {
	s := newSession(t, 2)
	err := s.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		if _, err := r.newComm(nil); err == nil {
			t.Error("empty comm accepted")
		}
		if _, err := r.newComm([]int{0, 0}); err == nil {
			t.Error("duplicate member accepted")
		}
		if _, err := r.newComm([]int{1}); err == nil {
			t.Error("comm excluding the caller accepted")
		}
		if _, err := r.newComm([]int{0, 99}); err == nil {
			t.Error("out-of-range member accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
