package host

import (
	"testing"
)

// FuzzRegisterFusion drives the register-file merge path — the landing
// zone of fused MMIO writes, and of injected MMIO corruption — with
// arbitrary data and masks: it must never panic, every triggered command
// must either validate or be rejected with an error (never both nil),
// and unmasked bank bytes must survive the merge untouched.
func FuzzRegisterFusion(f *testing.F) {
	good := EncodeBank(BankCommand{
		DstDev: 1, DstTile: 3, DstOff: 64, Count: 128, SrcOff: 32,
		Cmd: CmdCopy, Flags: FlagNotifyDest | FlagCompletion,
		NotifyOff: 8, ComplOff: 16, NotifyVal: 1, ComplVal: 2,
	})
	f.Add(good[:], uint32(0xFFFFFFFF), uint32(0xFFFFFFFF))
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Add([]byte{0xFF}, uint32(1), uint32(1<<16))
	f.Add(make([]byte, BankBytes+16), uint32(0xAAAAAAAA), uint32(0x55555555))
	f.Fuzz(func(t *testing.T, data []byte, mask1, mask2 uint32) {
		rf := NewBanks()
		before := rf.read(0)
		cmd, trigger := rf.Write(0, data, mask1)
		after := rf.read(0)
		for i := 0; i < BankBytes; i++ {
			if mask1&(1<<uint(i)) == 0 || i >= len(data) {
				if after[i] != before[i] {
					t.Fatalf("unmasked byte %d changed: %#x -> %#x", i, before[i], after[i])
				}
			} else if after[i] != data[i] {
				t.Fatalf("masked byte %d = %#x, want %#x", i, after[i], data[i])
			}
		}
		if trigger && (mask1&(1<<16) == 0 || after[16] == 0) {
			t.Fatal("trigger without a masked non-zero control byte")
		}
		// Validation must classify any decoded command without panicking,
		// for any device count.
		for _, n := range []int{0, 1, 4} {
			_ = cmd.Validate(n)
		}
		// A second partial write (the torn-programming case) must behave
		// the same way.
		cmd2, _ := rf.Write(0, data, mask2)
		_ = cmd2.Validate(4)
	})
}

// FuzzBankRoundTrip checks that every command image the encoder can emit
// decodes back to the same command — no two fields alias in the packed
// address register.
func FuzzBankRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint32(0), uint32(0), uint32(0), uint8(1), uint8(0), uint32(0), uint32(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint16(23), uint32(16000), uint32(8192), uint32(512), uint8(CmdCopy), uint8(3), uint32(8), uint32(16), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, dev uint8, tile uint16, dstOff, count, srcOff uint32, cmd, flags uint8, notifyOff, complOff uint32, nv, cv uint8) {
		c := BankCommand{
			DstDev:    int(dev),
			DstTile:   int(tile),
			DstOff:    int(dstOff & 0xFFFFFF), // packed width of the address register
			Count:     int(count),
			SrcOff:    int(srcOff),
			Cmd:       cmd,
			Flags:     flags,
			NotifyOff: int(notifyOff),
			ComplOff:  int(complOff),
			NotifyVal: nv,
			ComplVal:  cv,
		}
		b := EncodeBank(c)
		got := decodeBank(b[:])
		// SrcDev/SrcCore travel out of band (filled from the transport).
		got.SrcDev, got.SrcCore = c.SrcDev, c.SrcCore
		if got != c {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
	})
}

// read returns a core's bank image: the oracle FuzzRegisterFusion checks
// the merge against.
func (b *Banks) read(core int) [BankBytes]byte { return b.banks[core] }
