package host

import (
	"bytes"
	"testing"

	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

// rig builds n chips behind one communication task.
type rig struct {
	k     *sim.Kernel
	chips []*scc.Chip
	task  *Task
}

func newRig(t testing.TB, n int, ack pcie.AckMode) *rig {
	t.Helper()
	k := sim.NewKernel()
	var chips []*scc.Chip
	for d := 0; d < n; d++ {
		chips = append(chips, scc.NewChip(k, d, scc.DefaultParams()))
	}
	fabric, err := pcie.New(n, pcie.DefaultParams(), ack)
	if err != nil {
		t.Fatal(err)
	}
	task, err := New(k, fabric, chips, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, chips: chips, task: task}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func TestTransparentRemoteReadLine(t *testing.T) {
	r := newRig(t, 2, pcie.AckHost)
	// Put data into device 1's tile 0 directly; read from a core on
	// device 0.
	r.chips[1].HostWriteLMB(0, 64, pattern(32, 1))
	got := make([]byte, 32)
	var cost sim.Cycles
	r.chips[0].Launch(0, "reader", func(ctx *scc.Ctx) {
		t0 := ctx.Now()
		ctx.ReadMPB(1, 0, 64, got)
		cost = ctx.Now() - t0
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(32, 1)) {
		t.Error("transparent read returned wrong data")
	}
	// Four PCIe legs: well above 2e4 cycles but bounded.
	if cost < 15_000 || cost > 60_000 {
		t.Errorf("transparent read cost %d cycles, want 4-leg class [15k,60k]", cost)
	}
	if r.task.Stats().ForwardedReads == 0 {
		t.Error("expected a forwarded read")
	}
}

func TestTransparentRemoteWriteAckModes(t *testing.T) {
	// AckRemote (two round trips) must cost more than AckHost (one),
	// which must cost far more than AckFPGA (local ack).
	costs := map[pcie.AckMode]sim.Cycles{}
	for _, mode := range []pcie.AckMode{pcie.AckFPGA, pcie.AckHost, pcie.AckRemote} {
		r := newRig(t, 2, mode)
		var cost sim.Cycles
		r.chips[0].Launch(0, "writer", func(ctx *scc.Ctx) {
			t0 := ctx.Now()
			ctx.WriteMPB(1, 5, 0, pattern(32, 2))
			ctx.FlushWCB()
			cost = ctx.Now() - t0
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		costs[mode] = cost
		// The write must eventually land regardless of ack mode.
		got := make([]byte, 32)
		r.chips[1].HostReadLMB(5, 0, got)
		if !bytes.Equal(got, pattern(32, 2)) {
			t.Errorf("%v: write did not land", mode)
		}
	}
	if !(costs[pcie.AckFPGA] < costs[pcie.AckHost] && costs[pcie.AckHost] < costs[pcie.AckRemote]) {
		t.Errorf("ack cost ordering wrong: fpga=%d host=%d remote=%d",
			costs[pcie.AckFPGA], costs[pcie.AckHost], costs[pcie.AckRemote])
	}
}

func TestRegionRegistrationValidation(t *testing.T) {
	r := newRig(t, 1, pcie.AckHost)
	if err := r.task.Register(&Region{Dev: 0, Tile: 0, Off: 3, Len: 32}); err == nil {
		t.Error("unaligned region accepted")
	}
	if err := r.task.Register(&Region{Dev: 5, Tile: 0, Off: 0, Len: 32}); err == nil {
		t.Error("region on unknown device accepted")
	}
	if err := r.task.Register(&Region{Dev: 0, Tile: 0, Off: 0, Len: 64}); err != nil {
		t.Errorf("valid region rejected: %v", err)
	}
	if err := r.task.Register(&Region{Dev: 0, Tile: 0, Off: 32, Len: 64}); err == nil {
		t.Error("overlapping region accepted")
	}
	if err := r.task.Register(&Region{Dev: 0, Tile: 0, Off: 64, Len: mem.LMBSize}); err == nil {
		t.Error("region beyond LMB accepted")
	}
}

func TestCachedReadAfterUpdateCommand(t *testing.T) {
	r := newRig(t, 2, pcie.AckHost)
	const tile, base = 0, 0
	msg := pattern(2048, 3)
	rg := &Region{Dev: 0, Tile: tile, Off: base, Len: 4096, Kind: KindData, Mode: ModeCached, Owner: 0}
	if err := r.task.Register(rg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	var readCost sim.Cycles
	r.chips[0].Launch(0, "sender", func(ctx *scc.Ctx) {
		ctx.WriteMPB(0, tile, base, msg)
		ctx.FlushWCB()
		bank := EncodeBank(BankCommand{Cmd: CmdUpdate, SrcOff: base, Count: len(msg)})
		ctx.MMIOWrite(0, 0*BankBytes, bank[:])
		ctx.FlushWCB()
	})
	r.chips[1].Launch(0, "reader", func(ctx *scc.Ctx) {
		ctx.Delay(100_000) // let the prefetch land
		t0 := ctx.Now()
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, tile, base, got)
		readCost = ctx.Now() - t0
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cached read returned wrong data")
	}
	st := r.task.Stats()
	if st.Prefetches == 0 {
		t.Error("update command did not prefetch")
	}
	if st.CachedReads == 0 {
		t.Error("no cached reads served")
	}
	if st.SIFHits == 0 {
		t.Error("streaming produced no SIF hits — reads were all slow-path")
	}
	// 64 lines: mostly streamed, so far below 64 full round trips.
	fullRT := sim.Cycles(64 * 15_000)
	if readCost > fullRT/4 {
		t.Errorf("cached+streamed read cost %d, want well below %d", readCost, fullRT/4)
	}
}

func TestCacheInvalidateCommandDropsStaleData(t *testing.T) {
	r := newRig(t, 2, pcie.AckHost)
	rg := &Region{Dev: 0, Tile: 0, Off: 0, Len: 1024, Kind: KindData, Mode: ModeCached, Owner: 0}
	if err := r.task.Register(rg); err != nil {
		t.Fatal(err)
	}
	got1 := make([]byte, 64)
	got2 := make([]byte, 64)
	r.chips[0].Launch(0, "owner", func(ctx *scc.Ctx) {
		ctx.WriteMPB(0, 0, 0, pattern(64, 1))
		ctx.FlushWCB()
		bank := EncodeBank(BankCommand{Cmd: CmdUpdate, SrcOff: 0, Count: 64})
		ctx.MMIOWrite(0, 0, bank[:])
		ctx.FlushWCB()
		ctx.Delay(200_000)
		// Rewrite and explicitly invalidate the host copy (the paper's
		// relaxed-consistency contract), then update again.
		ctx.WriteMPB(0, 0, 0, pattern(64, 9))
		ctx.FlushWCB()
		inv := EncodeBank(BankCommand{Cmd: CmdInvalidate, SrcOff: 0, Count: 64})
		ctx.MMIOWrite(0, 0, inv[:])
		ctx.FlushWCB()
		upd := EncodeBank(BankCommand{Cmd: CmdUpdate, SrcOff: 0, Count: 64})
		ctx.MMIOWrite(0, 0, upd[:])
		ctx.FlushWCB()
	})
	r.chips[1].Launch(0, "reader", func(ctx *scc.Ctx) {
		ctx.Delay(150_000)
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 0, 0, got1)
		ctx.Delay(400_000)
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 0, 0, got2)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, pattern(64, 1)) {
		t.Error("first read wrong")
	}
	if !bytes.Equal(got2, pattern(64, 9)) {
		t.Error("read after invalidate+update returned stale data")
	}
	if r.task.Stats().Invalidates == 0 {
		t.Error("invalidate command not executed")
	}
}

func TestWriteCombiningAbsorbsAndFlushes(t *testing.T) {
	r := newRig(t, 2, pcie.AckHost)
	// Register device 1's tile 0 as a write-combining window.
	rg := &Region{Dev: 1, Tile: 0, Off: 0, Len: 4096, Kind: KindData, Mode: ModeWriteCombining, Owner: 0}
	if err := r.task.Register(rg); err != nil {
		t.Fatal(err)
	}
	msg := pattern(4096, 5)
	var writeCost sim.Cycles
	r.chips[0].Launch(0, "remote-putter", func(ctx *scc.Ctx) {
		t0 := ctx.Now()
		ctx.WriteMPB(1, 0, 0, msg)
		ctx.FlushWCB()
		writeCost = ctx.Now() - t0
		ctx.Delay(300_000) // allow the flush to drain
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	r.chips[1].HostReadLMB(0, 0, got)
	if !bytes.Equal(got, msg) {
		t.Fatal("write-combined data did not land on the target device")
	}
	st := r.task.Stats()
	if st.PostedWrites == 0 || st.WCBFlushes == 0 {
		t.Errorf("stats = %+v, want posted writes and flushes", st)
	}
	// 128 lines posted fast: far below 128 host round trips.
	if writeCost > 128*12_000/4 {
		t.Errorf("WC write cost %d cycles — not posted", writeCost)
	}
}

func TestFlagWriteFencedBehindWCBData(t *testing.T) {
	// A flag write from the same sender must never be observable at the
	// target before previously combined data.
	r := newRig(t, 2, pcie.AckHost)
	data := &Region{Dev: 1, Tile: 0, Off: 0, Len: 1024, Kind: KindData, Mode: ModeWriteCombining, Owner: 0}
	flags := &Region{Dev: 1, Tile: 0, Off: 8192, Len: 32, Kind: KindFlag, Mode: ModeTransparent, Owner: 1}
	if err := r.task.Register(data); err != nil {
		t.Fatal(err)
	}
	if err := r.task.Register(flags); err != nil {
		t.Fatal(err)
	}
	msg := pattern(512, 7)
	var dataOK bool
	r.chips[0].Launch(0, "sender", func(ctx *scc.Ctx) {
		ctx.WriteMPB(1, 0, 0, msg) // absorbed by host WCB (512 < flush threshold)
		ctx.FlushWCB()
		ctx.WriteMPB(1, 0, 8192, []byte{1}) // flag
		ctx.FlushWCB()
	})
	r.chips[1].Launch(0, "receiver", func(ctx *scc.Ctx) {
		ctx.WaitFlag(0, 8192, func(b byte) bool { return b == 1 })
		got := make([]byte, len(msg))
		ctx.InvalidateMPB()
		ctx.ReadMPB(1, 0, 0, got)
		dataOK = bytes.Equal(got, msg)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !dataOK {
		t.Error("flag overtook write-combined data")
	}
	if r.task.Stats().FlagFences == 0 {
		t.Error("no flag fence recorded")
	}
}

func TestVDMACopyWithNotifyAndCompletion(t *testing.T) {
	r := newRig(t, 2, pcie.AckHost)
	msg := pattern(2048, 8)
	const (
		srcTile, srcOff = 0, 0
		dstTile, dstOff = 3, 128
		notifyOff       = 8000
		complOff        = 8064
	)
	var complSeen, dataOK, notifySeen bool
	r.chips[0].Launch(0, "requester", func(ctx *scc.Ctx) {
		ctx.WriteMPB(0, srcTile, srcOff, msg)
		ctx.FlushWCB()
		bank := EncodeBank(BankCommand{
			DstDev: 1, DstTile: dstTile, DstOff: dstOff,
			Count: len(msg), SrcOff: srcOff,
			Cmd:       CmdCopy,
			Flags:     FlagNotifyDest | FlagCompletion,
			NotifyOff: notifyOff, NotifyVal: 0xAB,
			ComplOff: complOff, ComplVal: 0xCD,
		})
		ctx.MMIOWrite(0, 0, bank[:])
		ctx.FlushWCB()
		// Spin on the completion flag in our own MPB, as the paper's
		// §3.3 describes.
		ctx.WaitFlag(srcTile, complOff, func(b byte) bool { return b == 0xCD })
		complSeen = true
	})
	r.chips[1].Launch(6, "receiver", func(ctx *scc.Ctx) { // core 6 = tile 3
		ctx.WaitFlag(dstTile, notifyOff, func(b byte) bool { return b == 0xAB })
		notifySeen = true
		got := make([]byte, len(msg))
		ctx.InvalidateMPB()
		ctx.ReadMPB(1, dstTile, dstOff, got)
		dataOK = bytes.Equal(got, msg)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !complSeen || !notifySeen {
		t.Fatalf("compl=%v notify=%v, want both", complSeen, notifySeen)
	}
	if !dataOK {
		t.Error("vDMA copied wrong data (notify overtook payload?)")
	}
	if r.task.Stats().VDMACopies != 1 {
		t.Errorf("vdma copies = %d, want 1", r.task.Stats().VDMACopies)
	}
}

func TestVDMARegisterFusionSingleTransaction(t *testing.T) {
	// Programming the controller must cost one posted MMIO write, not
	// three synchronous ones: total well under a host round trip.
	r := newRig(t, 2, pcie.AckHost)
	var cost sim.Cycles
	r.chips[0].Launch(0, "prog", func(ctx *scc.Ctx) {
		bank := EncodeBank(BankCommand{Cmd: CmdInvalidate, SrcOff: 0, Count: 32})
		t0 := ctx.Now()
		ctx.MMIOWrite(0, 0, bank[:])
		ctx.FlushWCB()
		cost = ctx.Now() - t0
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	rt := sim.Cycles(2*5200 + 160)
	if cost >= rt {
		t.Errorf("vDMA programming cost %d cycles — not posted (round trip is %d)", cost, rt)
	}
}

func TestBankCommandEncodeDecodeRoundTrip(t *testing.T) {
	in := BankCommand{
		DstDev: 4, DstTile: 23, DstOff: 16352,
		Count: 7392, SrcOff: 8192,
		Cmd: CmdCopy, Flags: FlagNotifyDest | FlagCompletion,
		NotifyOff: 16000, ComplOff: 7680,
		NotifyVal: 0x5A, ComplVal: 0xA5,
	}
	bank := EncodeBank(in)
	out := decodeBank(bank[:])
	if out.DstDev != in.DstDev || out.DstTile != in.DstTile || out.DstOff != in.DstOff ||
		out.Count != in.Count || out.SrcOff != in.SrcOff || out.Cmd != in.Cmd ||
		out.Flags != in.Flags || out.NotifyOff != in.NotifyOff || out.ComplOff != in.ComplOff ||
		out.NotifyVal != in.NotifyVal || out.ComplVal != in.ComplVal {
		t.Errorf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestSIFBufferEviction(t *testing.T) {
	k := sim.NewKernel()
	sb := newSIFBuffer(k, 0, 2)
	sb.insert(1, pattern(32, 1))
	sb.insert(2, pattern(32, 2))
	sb.insert(3, pattern(32, 3)) // evicts 1
	d := make([]byte, 32)
	if sb.take(1, d) {
		t.Error("evicted line still present")
	}
	if !sb.take(3, d) || !bytes.Equal(d, pattern(32, 3)) {
		t.Error("line 3 missing or wrong")
	}
	if sb.evictions != 1 {
		t.Errorf("evictions = %d, want 1", sb.evictions)
	}
}

func TestHostWCBDirtySpans(t *testing.T) {
	rg := &Region{Dev: 0, Tile: 0, Off: 64, Len: 256}
	w := newHostWCB(rg)
	w.absorb(64, pattern(32, 1), 0xFFFFFFFF)
	w.absorb(128, pattern(32, 2), 0x0000000F) // only 4 bytes
	spans := takeSpans(w)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].off != 64 || len(spans[0].data) != 32 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].off != 128 || len(spans[1].data) != 4 {
		t.Errorf("span 1 off=%d len=%d, want 128/4", spans[1].off, len(spans[1].data))
	}
	if w.dirtyBytes != 0 {
		t.Error("dirty bytes not cleared")
	}
	if spans := takeSpans(w); spans != nil {
		t.Error("second take should be empty")
	}
}

func TestDeterministicInterDeviceRun(t *testing.T) {
	run := func() sim.Cycles {
		r := newRig(t, 3, pcie.AckHost)
		for d := 0; d < 3; d++ {
			d := d
			r.chips[d].Launch(0, "w", func(ctx *scc.Ctx) {
				for i := 0; i < 3; i++ {
					ctx.WriteMPB((d+1)%3, 2, 0, pattern(64, byte(d)))
					ctx.FlushWCB()
					buf := make([]byte, 64)
					ctx.InvalidateMPB()
					ctx.ReadMPB((d+2)%3, 2, 0, buf)
				}
			})
		}
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.k.Now()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic: run %d ended at %d, first %d", i, got, first)
		}
	}
}

// A warm task moves a line without allocating: a write into a
// write-combining window (below the flush threshold), a posted flag
// write, a data write under the host's and the FPGA's acknowledge, each
// through its landing and the forwarder's delivery, and a read served by
// the SIF buffer. Each round waits until everything it posted landed.
func TestWarmLineAllocatesNothing(t *testing.T) {
	for _, ack := range []pcie.AckMode{pcie.AckHost, pcie.AckFPGA} {
		r := newRig(t, 2, ack)
		// The window is on device 0 and the flag on device 1, so the
		// flag's fence has no combined bytes to flush.
		if err := r.task.Register(&Region{Dev: 0, Tile: 0, Off: 0, Len: 4096, Kind: KindData, Mode: ModeWriteCombining, Owner: 0}); err != nil {
			t.Fatal(err)
		}
		if err := r.task.Register(&Region{Dev: 1, Tile: 0, Off: 8192, Len: 32, Kind: KindFlag, Mode: ModeTransparent, Owner: 0}); err != nil {
			t.Fatal(err)
		}
		line := pattern(mem.LineSize, 1)
		got := make([]byte, mem.LineSize)
		var allocs float64
		r.k.Spawn("core", func(p *sim.Proc) {
			round := func() {
				r.task.WriteLine(p, 1, 0, 0, 0, 64, line, 0xFFFF)
				r.task.WriteLine(p, 0, 0, 1, 0, 8192, line, 1)
				r.task.WriteLine(p, 0, 0, 1, 3, 0, line, 0xFFFFFFFF)
				r.task.sifBufs[0].insert(lineKey(1, 2, 0), line)
				r.task.ReadLine(p, 0, 0, 1, 2, 0, got)
				p.Delay(200_000)
			}
			round()
			allocs = testing.AllocsPerRun(20, round)
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%v: a warm round of line moves allocates %v times, want 0", ack, allocs)
		}
		landed := make([]byte, mem.LineSize)
		r.chips[1].HostReadLMB(3, 0, landed)
		flag := make([]byte, 1)
		r.chips[1].HostReadLMB(0, 8192, flag)
		w := r.task.wcbs[r.task.regions.find(0, 0, 0)]
		if !bytes.Equal(landed, line) || flag[0] != line[0] || !bytes.Equal(got, line) || w.dirtyBytes != 16 {
			t.Errorf("%v: data %v flag %v read %v WCB dirty %d; want the line, its first byte, the line, 16",
				ack, landed, flag, got, w.dirtyBytes)
		}
		if st := r.task.Stats(); st.SIFHits == 0 || st.PostedWrites == 0 || st.WCBFlushes != 0 {
			t.Errorf("%v: stats %+v, want SIF hits, posted writes and no flush", ack, st)
		}
	}
}
