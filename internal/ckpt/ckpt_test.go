package ckpt

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// bankAt returns bank i of a restored image, a nil bank read as the
// zeros it stands for.
func bankAt(img [][]byte, i, size int) []byte {
	if img[i] == nil {
		return make([]byte, size)
	}
	return img[i]
}

func TestRestoreReplaysSnapshotPlusTail(t *testing.T) {
	l := NewLog()
	banks := [][]byte{make([]byte, 64), make([]byte, 64)}
	for i := range banks[0] {
		banks[0][i] = byte(i)
	}
	l.Checkpoint(banks)

	// Mutations after the checkpoint, noted as they happen.
	copy(banks[0][8:], []byte{0xAA, 0xBB})
	l.Note(0, 8, []byte{0xAA, 0xBB})
	copy(banks[1][0:], []byte{1, 2, 3, 4})
	l.Note(1, 0, []byte{1, 2, 3, 4})
	copy(banks[0][8:], []byte{0xCC}) // overwrite: order matters
	l.Note(0, 8, []byte{0xCC})

	got, writes, n := l.Restore()
	if writes != 3 || n != 7 {
		t.Errorf("restored %d writes / %d bytes, want 3 / 7", writes, n)
	}
	for i := range banks {
		if !bytes.Equal(got[i], banks[i]) {
			t.Errorf("bank %d: restore diverges from live image\n got %x\nwant %x", i, got[i], banks[i])
		}
	}
	// The restored image is a copy, not an alias of the live bank or of
	// the log's image.
	got[0][0] ^= 0xFF
	if banks[0][0] == got[0][0] {
		t.Error("restored bank aliases the live bank")
	}
	again, _, _ := l.Restore()
	if again[0][0] != banks[0][0] {
		t.Error("restored bank aliases the log's image")
	}
	// A store noted after a restore does not reach the restored copy.
	l.Note(1, 0, []byte{0xEE})
	if again[1][0] != 1 {
		t.Error("a later note leaked into an earlier restore")
	}
}

func TestCheckpointTruncatesTail(t *testing.T) {
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, 16)})
	l.Note(0, 0, []byte{9})
	if w, b := l.TailLen(); w != 1 || b != 1 {
		t.Fatalf("tail = %d/%d, want 1/1", w, b)
	}
	l.Checkpoint([][]byte{{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}})
	if w, b := l.TailLen(); w != 0 || b != 0 {
		t.Errorf("tail survived a checkpoint: %d/%d", w, b)
	}
	if n, total := l.Checkpoints(); n != 2 || total != 32 {
		t.Errorf("checkpoints = %d/%d bytes, want 2/32", n, total)
	}
	img, _, _ := l.Restore()
	if img[0][0] != 9 {
		t.Error("second checkpoint image not the restore base")
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	l := NewLog()
	if img, _, _ := l.Restore(); img != nil {
		t.Error("restore from an empty log produced an image")
	}
	// Notes before the first checkpoint neither count nor reach it.
	l.Note(0, 0, []byte{1})
	if w, b := l.TailLen(); w != 0 || b != 0 {
		t.Errorf("pre-checkpoint note counted: %d/%d", w, b)
	}
	l.Checkpoint([][]byte{make([]byte, 4)})
	img, writes, _ := l.Restore()
	if writes != 0 || !bytes.Equal(bankAt(img, 0, 4), make([]byte, 4)) {
		t.Errorf("pre-checkpoint note applied (writes=%d, bank=%v)", writes, img[0])
	}
}

func TestOutOfRangeRecordsSkipped(t *testing.T) {
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, 8)})
	l.Note(5, 0, []byte{1})    // no such bank
	l.Note(-1, 0, []byte{1})   // no such bank
	l.Note(0, 7, []byte{1, 2}) // runs past the bank
	l.Note(0, -1, []byte{1})   // starts before it
	l.Note(0, 0, []byte(nil))  // empty
	img, writes, n := l.Restore()
	if writes != 0 || n != 0 {
		t.Errorf("invalid stores applied: %d writes / %d bytes", writes, n)
	}
	if !bytes.Equal(bankAt(img, 0, 8), make([]byte, 8)) {
		t.Error("invalid store mutated the image")
	}
	if img[0] != nil {
		t.Error("an untouched zero bank was given storage")
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Note(0, 0, []byte{1})
	l.Checkpoint(nil)
	if img, _, _ := l.Restore(); img != nil {
		t.Error("nil log restored an image")
	}
	if w, b := l.TailLen(); w != 0 || b != 0 {
		t.Error("nil log has a tail")
	}
	if n, b := l.Checkpoints(); n != 0 || b != 0 {
		t.Error("nil log has checkpoints")
	}
}

// After the first interval the image reuses its storage: a steady
// interval of notes and a checkpoint allocates nothing, and the caller's
// buffers — a reused note buffer, live bank views — may change afterwards
// without touching what was noted.
func TestIntervalAllocatesNothing(t *testing.T) {
	l := NewLog()
	banks := [][]byte{make([]byte, 256), make([]byte, 256)}
	note := make([]byte, 32)
	interval := func() {
		for i := 0; i < 16; i++ {
			note[0] = byte(i)
			l.Note(i%2, 8*i, note[:1+i])
		}
		l.Checkpoint(banks)
	}
	interval()
	if allocs := testing.AllocsPerRun(20, interval); allocs != 0 {
		t.Errorf("steady checkpoint interval allocates %v times, want 0", allocs)
	}

	l.Note(1, 4, []byte{1, 2, 3})
	note[0] = 7
	l.Note(0, 0, note[:1])
	note[0] = 9 // reused by the caller after the note
	banks[1][100] = 0xEE
	got, writes, _ := l.Restore()
	if writes != 2 || got[0][0] != 7 || !bytes.Equal(got[1][4:7], []byte{1, 2, 3}) || got[1][100] != 0 {
		t.Errorf("restore after reused buffers: %d writes, bank0[0]=%d, bank1[4:7]=%v, bank1[100]=%#x",
			writes, got[0][0], got[1][4:7], got[1][100])
	}
}

// Once a bank holds storage, a note is a copy and two additions: ten
// thousand of them allocate nothing, however long the interval runs.
func TestNoteAllocatesNothing(t *testing.T) {
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, 1024)})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	l.Note(0, 0, data) // the bank's first note gives it storage
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			l.Note(0, 8*(i%128), data)
		}
	})
	if allocs != 0 {
		t.Errorf("10 000 notes into a written bank allocate %v times, want 0", allocs)
	}
}

// A million notes into one bank leave the log holding that one bank
// image, not a record of each.
func TestNotesHoldOneBankImage(t *testing.T) {
	const size = 16 << 10
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, size), make([]byte, size)})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 1_000_000; i++ {
		data[0] = byte(i)
		l.Note(1, 8*(i%(size/8)), data)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if held > size+64<<10 {
		t.Errorf("after 1M notes into one %d-byte bank the log holds %d more heap bytes, want at most one bank", size, held)
	}
	if w, b := l.TailLen(); w != 1_000_000 || b != 8_000_000 {
		t.Errorf("tail = %d/%d, want 1000000/8000000", w, b)
	}
	runtime.KeepAlive(l)
}

// refLog is the snapshot-plus-journal log the roll-forward image
// replaced, kept as the reference model: Note appends a copy of every
// store, Restore replays the in-range ones over a copy of the snapshot.
type refLog struct {
	snap [][]byte
	tail []refRecord

	snaps, snapBytes int
}

type refRecord struct {
	bank, off int
	data      []byte
}

func (l *refLog) Note(bank, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	l.tail = append(l.tail, refRecord{bank, off, append([]byte(nil), data...)})
}

func (l *refLog) Checkpoint(banks [][]byte) {
	if len(l.snap) != len(banks) {
		l.snap = make([][]byte, len(banks))
	}
	for i, b := range banks {
		l.snap[i] = append([]byte(nil), b...)
		l.snapBytes += len(b)
	}
	l.tail = l.tail[:0]
	l.snaps++
}

func (l *refLog) Restore() (banks [][]byte, writes, n int) {
	if l.snap == nil {
		return nil, 0, 0
	}
	banks = make([][]byte, len(l.snap))
	for i, b := range l.snap {
		banks[i] = append([]byte(nil), b...)
	}
	for _, r := range l.tail {
		if r.bank < 0 || r.bank >= len(banks) {
			continue
		}
		bank := banks[r.bank]
		if r.off < 0 || r.off+len(r.data) > len(bank) {
			continue
		}
		copy(bank[r.off:], r.data)
		writes++
		n += len(r.data)
	}
	return banks, writes, n
}

// TestLogMatchesReferenceModel drives the log and the reference model
// with the same seeded streams of notes (in range, out of range, before
// the first checkpoint), checkpoints (all-zero banks, changes of bank
// count and size) and restores: every restore must yield the same image
// and the same write and byte totals, and TailLen the same totals.
func TestLogMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewLog(), &refLog{}
		sizes := []int{64}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(100); {
			case r < 75:
				bank := rng.Intn(len(sizes)+2) - 1
				size := 64
				if bank >= 0 && bank < len(sizes) {
					size = sizes[bank]
				}
				off := rng.Intn(size+4) - 2
				data := make([]byte, rng.Intn(17))
				rng.Read(data)
				got.Note(bank, off, data)
				want.Note(bank, off, data)
			case r < 85:
				if rng.Intn(4) == 0 { // a new geometry
					sizes = make([]int, 1+rng.Intn(4))
					for i := range sizes {
						sizes[i] = 8 * rng.Intn(17)
					}
				}
				banks := make([][]byte, len(sizes))
				for i, size := range sizes {
					banks[i] = make([]byte, size)
					if rng.Intn(2) == 0 {
						rng.Read(banks[i])
					}
				}
				got.Checkpoint(banks)
				want.Checkpoint(banks)
			default:
				gimg, gw, gn := got.Restore()
				wimg, ww, wn := want.Restore()
				if (gimg == nil) != (wimg == nil) || len(gimg) != len(wimg) || gw != ww || gn != wn {
					t.Fatalf("seed %d op %d: restore %d banks, %d/%d; reference %d banks, %d/%d",
						seed, op, len(gimg), gw, gn, len(wimg), ww, wn)
				}
				for i := range wimg {
					if g := bankAt(gimg, i, len(wimg[i])); !bytes.Equal(g, wimg[i]) {
						t.Fatalf("seed %d op %d bank %d:\n got %x\nwant %x", seed, op, i, g, wimg[i])
					}
				}
				if w, n := got.TailLen(); w != ww || n != wn {
					t.Fatalf("seed %d op %d: TailLen %d/%d, restored %d/%d", seed, op, w, n, ww, wn)
				}
			}
			if n, b := got.Checkpoints(); n != want.snaps || b != want.snapBytes {
				t.Fatalf("seed %d op %d: checkpoints %d/%d, reference %d/%d", seed, op, n, b, want.snaps, want.snapBytes)
			}
		}
	}
}

// BenchmarkLogNote measures one store noted into a device bank that
// already holds storage — the cost every MPB store pays while a device
// has a checkpoint log.
//
//	go test ./internal/ckpt -bench=LogNote -benchmem
func BenchmarkLogNote(b *testing.B) {
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, 16<<10)})
	line := make([]byte, 32)
	l.Note(0, 0, line)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Note(0, 32*(i%512), line)
	}
}
