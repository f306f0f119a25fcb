// Package ckpt holds the crash-consistent checkpoint state of one SCC
// device: an image of the device's on-chip memory banks that rolls
// forward. A checkpoint copies the banks into the image, and every store
// observed since is copied into it in place, so at any instant the image
// is the crash-point memory byte-exactly — the property the membership
// manager's rejoin path depends on (DESIGN.md §8).
//
// The image is built only from what the log is handed: it never reads
// live memory after a checkpoint, so a store that bypasses the observer
// is lost at a crash.
//
// The package is pure data: it never touches the simulation kernel, so
// taking or restoring a checkpoint costs zero simulated time on its own
// (the membership manager charges the modelled quiesce/restore delays).
package ckpt

import "bytes"

// bank is the image of one device bank. data is nil while the bank has
// held only zeros; it then reads as zeros, like an untouched mem.LMB.
type bank struct {
	data []byte
	size int
}

// Log is the checkpoint state of one device: its banks as the last
// checkpoint captured them, with every store noted since applied.
type Log struct {
	image []bank // nil until the first checkpoint

	snaps     int // checkpoints taken
	snapBytes int // total checkpoint payload
	// writes and bytes count the stores applied since the last
	// checkpoint.
	writes, bytes int
}

// NewLog returns an empty log whose first Checkpoint call defines the
// bank geometry.
func NewLog() *Log { return &Log{} }

// Note applies one store to the image. The data is copied: callers may
// reuse their buffers. A store before the first checkpoint, or outside
// the bank geometry, is dropped.
func (l *Log) Note(bank, off int, data []byte) {
	if l == nil || len(data) == 0 || bank < 0 || bank >= len(l.image) {
		return
	}
	b := &l.image[bank]
	if off < 0 || off+len(data) > b.size {
		return
	}
	if b.data == nil {
		b.data = make([]byte, b.size)
	}
	copy(b.data[off:], data)
	l.writes++
	l.bytes += len(data)
}

// Checkpoint copies the bank images into the log (the caller may hand in
// views of live memory) and resets the store counters — the quiesce-point
// capture. An all-zero bank takes no image storage until a store lands
// in it.
func (l *Log) Checkpoint(banks [][]byte) {
	if l == nil {
		return
	}
	if len(l.image) != len(banks) {
		l.image = make([]bank, len(banks))
	}
	total := 0
	for i, src := range banks {
		b := &l.image[i]
		if b.size != len(src) {
			*b = bank{size: len(src)}
		}
		total += len(src)
		if b.data == nil && isZero(src) {
			continue
		}
		if b.data == nil {
			b.data = make([]byte, len(src))
		}
		copy(b.data, src)
	}
	l.writes = 0
	l.bytes = 0
	l.snaps++
	l.snapBytes += total
}

// Restore returns a copy of the crash-point image, owned by the caller
// (a nil bank reads as zeros), and the store totals applied to it since
// the last checkpoint, or nil if no checkpoint was ever taken.
func (l *Log) Restore() (banks [][]byte, writes, n int) {
	if l == nil || l.image == nil {
		return nil, 0, 0
	}
	banks = make([][]byte, len(l.image))
	for i, b := range l.image {
		if b.data != nil {
			banks[i] = bytes.Clone(b.data)
		}
	}
	return banks, l.writes, l.bytes
}

// Checkpoints returns how many checkpoints were taken and their total
// payload bytes.
//
//lint:ignore deadexport vscc's PDES identity test fingerprints the log with it
func (l *Log) Checkpoints() (n, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.snaps, l.snapBytes
}

// TailLen returns the store and byte counts applied since the last
// checkpoint.
//
//lint:ignore deadexport vscc's PDES identity test fingerprints the log with it
func (l *Log) TailLen() (writes, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.writes, l.bytes
}

// isZero reports whether every byte of b is zero.
func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
