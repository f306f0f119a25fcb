package rcce

import (
	"encoding/binary"
	"math"
)

// Barrier synchronizes all ranks of the session (RCCE_barrier over the
// whole "world" communicator). It is flag-based: every rank reports to
// rank 0 with a generation byte, and rank 0 releases everyone.
func (r *Rank) Barrier() {
	r.gen++
	if r.gen == 0 { // generation 0 means "idle"; skip it on wrap
		r.gen = 1
	}
	gen := r.gen
	n := r.s.NumRanks()
	if n == 1 {
		return
	}
	_, myTile, myBase := r.mpb(r.id)
	if r.id == 0 {
		// Gather: wait for every rank's arrival byte in our barrier array.
		for peer := 1; peer < n; peer++ {
			off := myBase + barrierFlagBase + peer
			r.ctx.WaitFlag(myTile, off, func(b byte) bool { return b == gen })
		}
		// Release: write the generation into everyone's release slot.
		for peer := 1; peer < n; peer++ {
			r.writeFlag(peer, barrierFlagBase+0, gen)
		}
		return
	}
	// Report arrival at rank 0, then wait for the release.
	r.writeFlag(0, barrierFlagBase+r.id, gen)
	r.ctx.WaitFlag(myTile, myBase+barrierFlagBase+0, func(b byte) bool { return b == gen })
}

// Bcast broadcasts data from root to all ranks (every rank passes the
// same length; non-roots receive into data).
func (r *Rank) Bcast(root int, data []byte) error {
	r.checkPeer(root)
	if r.s.NumRanks() == 1 {
		return nil
	}
	if r.id == root {
		for peer := 0; peer < r.s.NumRanks(); peer++ {
			if peer == root {
				continue
			}
			if err := r.Send(peer, data); err != nil {
				return err
			}
		}
		return nil
	}
	return r.Recv(root, data)
}

// ReduceOp is a combining operator for Reduce/Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic("rcce: unknown reduce op")
}

// Reduce combines vec element-wise across all ranks with op; the result
// lands in vec on root only. Mirrors RCCE_reduce for doubles.
func (r *Rank) Reduce(root int, op ReduceOp, vec []float64) error {
	r.checkPeer(root)
	n := r.s.NumRanks()
	if n == 1 {
		return nil
	}
	buf := make([]byte, 8*len(vec))
	if r.id == root {
		tmp := make([]float64, len(vec))
		for peer := 0; peer < n; peer++ {
			if peer == root {
				continue
			}
			if err := r.Recv(peer, buf); err != nil {
				return err
			}
			decodeFloats(buf, tmp)
			for i := range vec {
				vec[i] = op.apply(vec[i], tmp[i])
			}
			// Charge the combine loop (1 flop per element).
			r.ComputeFlops(float64(len(vec)))
		}
		return nil
	}
	encodeFloats(vec, buf)
	return r.Send(root, buf)
}

// Allreduce is Reduce followed by Bcast of the result.
func (r *Rank) Allreduce(op ReduceOp, vec []float64) error {
	if err := r.Reduce(0, op, vec); err != nil {
		return err
	}
	buf := make([]byte, 8*len(vec))
	if r.id == 0 {
		encodeFloats(vec, buf)
	}
	if err := r.Bcast(0, buf); err != nil {
		return err
	}
	decodeFloats(buf, vec)
	return nil
}

func encodeFloats(vec []float64, buf []byte) {
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
}

func decodeFloats(buf []byte, vec []float64) {
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}
