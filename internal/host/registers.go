package host

import (
	"encoding/binary"
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/scc"
)

// The vDMA controller is programmed through memory-mapped registers
// (paper §3.3, Fig. 5): three logical registers — address, count,
// control — allocated contiguously with 32 B alignment so the SCC's
// write-combine buffer fuses programming into a single off-chip write.
// Each core owns one 32-byte register bank at MMIO offset core*32.
//
// Bank layout (little endian):
//
//	[ 0: 8)  address: packed destination dev<<40 | tile<<24 | off
//	[ 8:12)  count:   transfer length in bytes
//	[12:16)  source:  absolute LMB offset within the requester's tile
//	[16:17)  control: command (see Cmd*)
//	[17:18)  flags:   bit 0 notify destination, bit 1 completion flag
//	[18:22)  notify:  absolute LMB offset at the destination tile
//	[22:26)  compl:   absolute LMB offset at the requester's tile
//	[26:27)  notify value byte
//	[27:28)  completion value byte
const (
	// BankBytes is the size of one core's register bank.
	BankBytes = mem.LineSize

	// CmdCopy starts a vDMA copy from the requester's MPB to the packed
	// destination (the local-put/local-get data mover).
	CmdCopy = 1
	// CmdUpdate prefetches [source, source+count) of the requester's MPB
	// into the host software cache (warms the local-put/remote-get path).
	CmdUpdate = 2
	// CmdInvalidate drops host-cached copies of the range — the explicit
	// consistency control of the relaxed memory model (§3.1).
	CmdInvalidate = 3

	// FlagNotifyDest and FlagCompletion select the vDMA side effects.
	FlagNotifyDest = 1 << 0
	FlagCompletion = 1 << 1
)

// BankCommand is a decoded register-bank write.
type BankCommand struct {
	// Requester identity (filled by the task from the transport, not
	// from register contents). srcGen is the requesting core's
	// retirement generation when the MMIO write was posted; the copy's
	// landings drop if the core was retired in between.
	SrcDev, SrcCore int
	srcGen          uint32

	DstDev, DstTile, DstOff int
	Count                   int
	SrcOff                  int
	Cmd                     byte
	Flags                   byte
	NotifyOff               int
	ComplOff                int
	NotifyVal               byte
	ComplVal                byte
}

// PackDst encodes a destination triple for the address register.
func PackDst(dev, tile, off int) uint64 {
	return uint64(dev)<<40 | uint64(tile)<<24 | uint64(off)
}

// EncodeBank builds the 32-byte register-bank image for a command; cores
// write it with a single fused MMIO store.
func EncodeBank(c BankCommand) [BankBytes]byte {
	var b [BankBytes]byte
	binary.LittleEndian.PutUint64(b[0:], PackDst(c.DstDev, c.DstTile, c.DstOff))
	binary.LittleEndian.PutUint32(b[8:], uint32(c.Count))
	binary.LittleEndian.PutUint32(b[12:], uint32(c.SrcOff))
	b[16] = c.Cmd
	b[17] = c.Flags
	binary.LittleEndian.PutUint32(b[18:], uint32(c.NotifyOff))
	binary.LittleEndian.PutUint32(b[22:], uint32(c.ComplOff))
	b[26] = c.NotifyVal
	b[27] = c.ComplVal
	return b
}

// decodeBank parses a register-bank image.
func decodeBank(b []byte) BankCommand {
	dst := binary.LittleEndian.Uint64(b[0:])
	return BankCommand{
		DstDev:    int(dst >> 40),
		DstTile:   int(dst >> 24 & 0xFFFF),
		DstOff:    int(dst & 0xFFFFFF),
		Count:     int(binary.LittleEndian.Uint32(b[8:])),
		SrcOff:    int(binary.LittleEndian.Uint32(b[12:])),
		Cmd:       b[16],
		Flags:     b[17],
		NotifyOff: int(binary.LittleEndian.Uint32(b[18:])),
		ComplOff:  int(binary.LittleEndian.Uint32(b[22:])),
		NotifyVal: b[26],
		ComplVal:  b[27],
	}
}

// Validate rejects a command whose decoded fields cannot describe a
// legal operation — the backstop that keeps a corrupted register image
// (MMIO corruption, partial programming) from crashing the host task or
// scribbling on the wrong device. The PDES per-kernel host
// (internal/vscc) decodes the same register images and uses it too.
func (c BankCommand) Validate(numDevs int) error {
	switch c.Cmd {
	case CmdCopy, CmdUpdate, CmdInvalidate:
	default:
		return fmt.Errorf("host: unknown command %d", c.Cmd)
	}
	if c.Count <= 0 || c.Count > mem.LMBSize {
		return fmt.Errorf("host: command count %d out of range", c.Count)
	}
	if c.SrcOff < 0 || c.SrcOff+c.Count > mem.LMBSize {
		return fmt.Errorf("host: source range [%d,%d) outside LMB", c.SrcOff, c.SrcOff+c.Count)
	}
	if c.Cmd != CmdCopy {
		return nil
	}
	if c.DstDev < 0 || c.DstDev >= numDevs {
		return fmt.Errorf("host: destination device %d out of range", c.DstDev)
	}
	if c.DstTile < 0 || c.DstTile >= scc.NumTiles {
		return fmt.Errorf("host: destination tile %d out of range", c.DstTile)
	}
	if c.DstOff < 0 || c.DstOff+c.Count > mem.LMBSize {
		return fmt.Errorf("host: destination range [%d,%d) outside LMB", c.DstOff, c.DstOff+c.Count)
	}
	if c.Flags&FlagNotifyDest != 0 && (c.NotifyOff < 0 || c.NotifyOff >= mem.LMBSize) {
		return fmt.Errorf("host: notify offset %d outside LMB", c.NotifyOff)
	}
	if c.Flags&FlagCompletion != 0 && (c.ComplOff < 0 || c.ComplOff >= mem.LMBSize) {
		return fmt.Errorf("host: completion offset %d outside LMB", c.ComplOff)
	}
	return nil
}

// Banks is the register file of one device's host register window: one
// bank per core. The classic Task holds one per device, and so does the
// PDES host kernel (internal/vscc), so the MMIO decode path is shared.
type Banks struct {
	banks map[int][BankBytes]byte // core id -> bank image
}

// NewBanks returns an empty register window.
func NewBanks() *Banks { return &Banks{banks: make(map[int][BankBytes]byte)} }

// Write merges a masked line write into core's bank and returns the
// decoded command plus whether the control byte was armed with a
// non-zero command (the write that triggers execution).
func (b *Banks) Write(core int, data []byte, mask uint32) (BankCommand, bool) {
	bank := b.banks[core]
	for i := 0; i < BankBytes && i < len(data); i++ {
		if mask&(1<<uint(i)) != 0 {
			bank[i] = data[i]
		}
	}
	b.banks[core] = bank
	trigger := mask&(1<<16) != 0 && bank[16] != 0
	return decodeBank(bank[:]), trigger
}
