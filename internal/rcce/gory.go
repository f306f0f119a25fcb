package rcce

import (
	"fmt"

	"vscc/internal/scc"
)

// The virtual-address flavour of the gory layer: on hardware, RCCE's
// one-sided API works on t_vcharp virtual addresses translated by the
// core's LUT. VAddrOf builds the address of a peer's MPB payload byte —
// through the own-device MPB window for on-chip peers and through the
// vSCC remote-device windows (the paper's §2.1 HAL extension) for peers
// on other devices.
//
//lint:ignore deadexport vscc's test of the §2.1 remote LUT window drives it
func (r *Rank) VAddrOf(rank, off int) (scc.VAddr, error) {
	r.checkPeer(rank)
	if off < 0 || off >= PayloadBytes {
		return 0, fmt.Errorf("rcce: vaddr offset %d outside payload area", off)
	}
	pl := r.s.places[rank]
	tile := scc.CoreTile(pl.Core)
	tileOff := scc.CoreLMBOffset(pl.Core) + off
	if pl.Dev == r.place(r.id).Dev {
		return scc.MPBAddr(tile, tileOff), nil
	}
	return scc.RemoteMPBAddr(pl.Dev, tile, tileOff), nil
}

// PutV is Put through a virtual address (one-sided write, flushed).
//
//lint:ignore deadexport vscc's test of the §2.1 remote LUT window drives it
func (r *Rank) PutV(a scc.VAddr, data []byte) error {
	r.ctx.CopyPrivate(len(data))
	if err := r.ctx.WriteV(a, data); err != nil {
		return err
	}
	r.ctx.FlushWCB()
	return nil
}

// GetV is Get through a virtual address (one-sided coherent read).
//
//lint:ignore deadexport vscc's test of the §2.1 remote LUT window drives it
func (r *Rank) GetV(a scc.VAddr, buf []byte) error {
	r.ctx.InvalidateMPB()
	if err := r.ctx.ReadV(a, buf); err != nil {
		return err
	}
	r.ctx.CopyPrivate(len(buf))
	return nil
}
