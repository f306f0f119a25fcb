package rcce

import (
	"fmt"
	"sort"
)

// comm is a communicator: an ordered subset of the session's ranks with
// its own rank numbering, as created by RCCE_comm_split. Collectives on
// a communicator involve only its members; the flag traffic is
// addressed by global ranks, so communicators need no extra MPB space.
// No program splits a session yet, so only the package's tests build one.
type comm struct {
	s *Session
	// members maps communicator rank -> global rank.
	members []int
	// index maps global rank -> communicator rank.
	index map[int]int
}

// commWorld returns the communicator containing every session rank, in
// rank order (RCCE_COMM_WORLD).
func (r *Rank) commWorld() *comm {
	members := make([]int, r.s.NumRanks())
	for i := range members {
		members[i] = i
	}
	c, _ := r.newComm(members)
	return c
}

// commSplit partitions the session like RCCE_comm_split: every rank
// calls it with a color and a key; ranks sharing a color form one
// communicator, ordered by (key, global rank). It is collective — every
// session rank must call it with consistent arguments; consistency of
// the resulting membership is derived deterministically from the
// arguments via the provided function applied to every rank.
//
// Because the simulator runs SPMD programs, the color/key of every rank
// must be computable by every rank: pass the same colorKey function on
// all ranks.
func (r *Rank) commSplit(colorKey func(globalRank int) (color, key int)) (*comm, error) {
	myColor, _ := colorKey(r.id)
	type entry struct{ rank, key int }
	var mine []entry
	for g := 0; g < r.s.NumRanks(); g++ {
		c, k := colorKey(g)
		if c == myColor {
			mine = append(mine, entry{rank: g, key: k})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	members := make([]int, len(mine))
	for i, e := range mine {
		members[i] = e.rank
	}
	return r.newComm(members)
}

// newComm builds the communicator handle for this rank.
func (r *Rank) newComm(members []int) (*comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("rcce: empty communicator")
	}
	index := make(map[int]int, len(members))
	for i, g := range members {
		if g < 0 || g >= r.s.NumRanks() {
			return nil, fmt.Errorf("rcce: communicator member %d out of range", g)
		}
		if _, dup := index[g]; dup {
			return nil, fmt.Errorf("rcce: duplicate communicator member %d", g)
		}
		index[g] = i
	}
	if _, ok := index[r.id]; !ok {
		return nil, fmt.Errorf("rcce: rank %d not a member of its own communicator", r.id)
	}
	return &comm{s: r.s, members: members, index: index}, nil
}

// size returns the communicator's member count (RCCE_num_ues(comm)).
func (c *comm) size() int { return len(c.members) }

// rank returns the caller's rank within the communicator
// (RCCE_ue(comm)).
func (c *comm) rank(r *Rank) int { return c.index[r.id] }

// global translates a communicator rank to the session rank.
func (c *comm) global(commRank int) int { return c.members[commRank] }

// send transmits to a communicator rank.
func (c *comm) send(r *Rank, destCommRank int, data []byte) error {
	return r.Send(c.members[destCommRank], data)
}

// recv receives from a communicator rank.
func (c *comm) recv(r *Rank, srcCommRank int, buf []byte) error {
	return r.Recv(c.members[srcCommRank], buf)
}

// barrier synchronizes the communicator's members: a message-based
// gather to the communicator's first member followed by a release. It
// shares no flag slots with the session barrier or other communicators,
// so barriers of overlapping communicators may be freely sequenced.
func (c *comm) barrier(r *Rank) {
	if len(c.members) == 1 {
		return
	}
	token := []byte{1}
	buf := make([]byte, 1)
	if c.rank(r) == 0 {
		for cr := 1; cr < c.size(); cr++ {
			if err := c.recv(r, cr, buf); err != nil {
				panic(err)
			}
		}
		for cr := 1; cr < c.size(); cr++ {
			if err := c.send(r, cr, token); err != nil {
				panic(err)
			}
		}
		return
	}
	if err := c.send(r, 0, token); err != nil {
		panic(err)
	}
	if err := c.recv(r, 0, buf); err != nil {
		panic(err)
	}
}

// bcast broadcasts data from the communicator rank root to all members.
func (c *comm) bcast(r *Rank, root int, data []byte) error {
	if c.size() == 1 {
		return nil
	}
	if c.rank(r) == root {
		for cr := 0; cr < c.size(); cr++ {
			if cr == root {
				continue
			}
			if err := c.send(r, cr, data); err != nil {
				return err
			}
		}
		return nil
	}
	return c.recv(r, root, data)
}

// allreduce combines vec across the communicator with op.
func (c *comm) allreduce(r *Rank, op ReduceOp, vec []float64) error {
	root := 0
	buf := make([]byte, 8*len(vec))
	if c.rank(r) == root {
		tmp := make([]float64, len(vec))
		for cr := 1; cr < c.size(); cr++ {
			if err := c.recv(r, cr, buf); err != nil {
				return err
			}
			decodeFloats(buf, tmp)
			for i := range vec {
				vec[i] = op.apply(vec[i], tmp[i])
			}
			r.ComputeFlops(float64(len(vec)))
		}
	} else {
		encodeFloats(vec, buf)
		if err := c.send(r, root, buf); err != nil {
			return err
		}
	}
	if c.rank(r) == root {
		encodeFloats(vec, buf)
	}
	if err := c.bcast(r, root, buf); err != nil {
		return err
	}
	decodeFloats(buf, vec)
	return nil
}
