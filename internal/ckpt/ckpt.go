// Package ckpt holds the crash-consistent checkpoint state of one SCC
// device: a full snapshot of the device's on-chip memory banks plus a
// write-ahead tail of every store applied since the snapshot. Restoring
// a checkpoint replays snapshot-then-tail, which reconstructs the
// memory image byte-exactly at the crash point — the property the
// membership manager's rejoin path depends on (DESIGN.md §8).
//
// The package is pure data: it never touches the simulation kernel, so
// taking or restoring a checkpoint costs zero simulated time on its own
// (the membership manager charges the modelled quiesce/restore delays).
package ckpt

// Record is one journaled store into a device bank.
type Record struct {
	Bank int // tile/bank index within the device
	Off  int // byte offset within the bank
	Data []byte
}

// Log is the checkpoint state of one device: the last snapshot of its
// banks and the write journal accumulated since.
type Log struct {
	snap [][]byte
	tail []Record
	// arena holds the journaled bytes the tail's records slice, in
	// write order; a checkpoint empties it for reuse.
	arena []byte

	snaps      int // checkpoints taken
	snapBytes  int // total snapshot payload
	tailWrites int // journal records since the last checkpoint
	tailBytes  int
}

// NewLog returns an empty log whose first Checkpoint call defines the
// bank geometry.
func NewLog() *Log { return &Log{} }

// Note journals one store. The data is copied: callers may reuse their
// buffers.
func (l *Log) Note(bank, off int, data []byte) {
	if l == nil || len(data) == 0 {
		return
	}
	start := len(l.arena)
	l.arena = append(l.arena, data...)
	l.tail = append(l.tail, Record{Bank: bank, Off: off, Data: l.arena[start:len(l.arena):len(l.arena)]})
	l.tailWrites++
	l.tailBytes += len(data)
}

// Checkpoint snapshots the bank images (copied: the caller may hand in
// views of live memory) and truncates the journal — the quiesce-point
// capture.
func (l *Log) Checkpoint(banks [][]byte) {
	if l == nil {
		return
	}
	if len(l.snap) != len(banks) {
		l.snap = make([][]byte, len(banks))
	}
	total := 0
	for i, b := range banks {
		if len(l.snap[i]) != len(b) {
			l.snap[i] = make([]byte, len(b))
		}
		copy(l.snap[i], b)
		total += len(b)
	}
	l.tail = l.tail[:0]
	l.arena = l.arena[:0]
	l.tailWrites = 0
	l.tailBytes = 0
	l.snaps++
	l.snapBytes += total
}

// Restore rebuilds the crash-point memory image: the snapshot with the
// journal tail replayed over it, in write order. It returns the bank
// images (owned by the caller) and the replayed write/byte totals, or
// nil if no checkpoint was ever taken.
func (l *Log) Restore() (banks [][]byte, writes, bytes int) {
	if l == nil || l.snap == nil {
		return nil, 0, 0
	}
	banks = make([][]byte, len(l.snap))
	for i, b := range l.snap {
		banks[i] = append([]byte(nil), b...)
	}
	for _, r := range l.tail {
		if r.Bank < 0 || r.Bank >= len(banks) {
			continue
		}
		bank := banks[r.Bank]
		if r.Off < 0 || r.Off+len(r.Data) > len(bank) {
			continue
		}
		copy(bank[r.Off:], r.Data)
		writes++
		bytes += len(r.Data)
	}
	return banks, writes, bytes
}

// Armed reports whether a snapshot exists to restore from.
func (l *Log) Armed() bool { return l != nil && l.snap != nil }

// Checkpoints returns how many snapshots were taken and their total
// payload bytes.
func (l *Log) Checkpoints() (n, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.snaps, l.snapBytes
}

// TailLen returns the journal's current record and byte counts.
func (l *Log) TailLen() (writes, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.tailWrites, l.tailBytes
}
