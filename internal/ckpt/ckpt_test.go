package ckpt

import (
	"bytes"
	"testing"
)

func TestRestoreReplaysSnapshotPlusTail(t *testing.T) {
	l := NewLog()
	banks := [][]byte{make([]byte, 64), make([]byte, 64)}
	for i := range banks[0] {
		banks[0][i] = byte(i)
	}
	l.Checkpoint(banks)

	// Mutations after the checkpoint, journaled as they happen.
	copy(banks[0][8:], []byte{0xAA, 0xBB})
	l.Note(0, 8, []byte{0xAA, 0xBB})
	copy(banks[1][0:], []byte{1, 2, 3, 4})
	l.Note(1, 0, []byte{1, 2, 3, 4})
	copy(banks[0][8:], []byte{0xCC}) // overwrite: order matters
	l.Note(0, 8, []byte{0xCC})

	got, writes, n := l.Restore()
	if writes != 3 || n != 7 {
		t.Errorf("replayed %d writes / %d bytes, want 3 / 7", writes, n)
	}
	for i := range banks {
		if !bytes.Equal(got[i], banks[i]) {
			t.Errorf("bank %d: restore diverges from live image\n got %x\nwant %x", i, got[i], banks[i])
		}
	}
	// The restored image is a copy, not an alias.
	got[0][0] ^= 0xFF
	if banks[0][0] == got[0][0] {
		t.Error("restored bank aliases the live bank")
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
	if l.Armed() {
		t.Error("empty log claims to be armed")
	}
	if img, _, _ := l.Restore(); img != nil {
		t.Error("restore from an empty log produced an image")
	}
	// Notes before the first checkpoint are discarded by it, not
	// replayed into it.
	l.Note(0, 0, []byte{1})
	l.Checkpoint([][]byte{make([]byte, 4)})
	img, writes, _ := l.Restore()
	if writes != 0 || img[0][0] != 0 {
		t.Errorf("pre-checkpoint note replayed (writes=%d, byte=%d)", writes, img[0][0])
	}
}

func TestOutOfRangeRecordsSkipped(t *testing.T) {
	l := NewLog()
	l.Checkpoint([][]byte{make([]byte, 8)})
	l.tail = append(l.tail,
		Record{Bank: 5, Off: 0, Data: []byte{1}},
		Record{Bank: 0, Off: 7, Data: []byte{1, 2}},
		Record{Bank: 0, Off: -1, Data: []byte{1}},
	)
	img, writes, n := l.Restore()
	if writes != 0 || n != 0 {
		t.Errorf("invalid records replayed: %d writes / %d bytes", writes, n)
	}
	if !bytes.Equal(img[0], make([]byte, 8)) {
		t.Error("invalid record mutated the image")
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Note(0, 0, []byte{1})
	l.Checkpoint(nil)
	if l.Armed() {
		t.Error("nil log armed")
	}
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

// After the first interval the journal and the snapshot reuse their
// storage: a steady interval of notes and a checkpoint allocates nothing,
// and the caller's buffers — a reused note buffer, live bank views — may
// change afterwards without touching what was journaled.
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
