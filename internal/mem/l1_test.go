package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refL1 is the map-plus-FIFO-slice cache the slot ring replaced, kept
// as the reference model: one heap line per fill, a fresh map per
// invalidation, eviction of order[0].
type refL1 struct {
	lines    map[uint64]*[LineSize]byte
	order    []uint64
	maxLines int

	hits, misses, evictions, flushes uint64
}

func newRefL1(maxLines int) *refL1 {
	return &refL1{lines: make(map[uint64]*[LineSize]byte), maxLines: maxLines}
}

func (c *refL1) Lookup(key uint64) ([]byte, bool) {
	if ln, ok := c.lines[key]; ok {
		c.hits++
		return ln[:], true
	}
	c.misses++
	return nil, false
}

func (c *refL1) Fill(key uint64, data [LineSize]byte) {
	if _, ok := c.lines[key]; !ok {
		if len(c.order) >= c.maxLines {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.lines, oldest)
			c.evictions++
		}
		c.order = append(c.order, key)
	}
	d := data
	c.lines[key] = &d
}

func (c *refL1) UpdateIfPresent(key uint64, off int, data []byte) {
	if ln, ok := c.lines[key]; ok {
		copy(ln[off:], data)
	}
}

func (c *refL1) InvalidateAll() {
	c.lines = make(map[uint64]*[LineSize]byte)
	c.order = c.order[:0]
	c.flushes++
}

// TestL1MatchesReferenceModel drives the slot-ring L1 and the reference
// model with the same seeded streams of fills, lookups, write-through
// updates and invalidations: every lookup must agree on hit and
// contents, and residency and the four counters must agree throughout.
func TestL1MatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 256} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewL1(capacity), newRefL1(capacity)
			// Keys from a space a few times the capacity, so streams
			// both hit and evict.
			keys := uint64(3*capacity + 2)
			for op := 0; op < 4000; op++ {
				key := uint64(rng.Int63n(int64(keys)))
				switch r := rng.Intn(100); {
				case r < 40:
					var line [LineSize]byte
					rng.Read(line[:])
					got.Fill(key, line)
					want.Fill(key, line)
				case r < 80:
					g, gok := got.Lookup(key)
					w, wok := want.Lookup(key)
					if gok != wok || !bytes.Equal(g, w) {
						t.Fatalf("cap %d seed %d op %d: Lookup(%d) = %v,%v; reference %v,%v", capacity, seed, op, key, g, gok, w, wok)
					}
				case r < 97:
					off := rng.Intn(LineSize)
					data := make([]byte, 1+rng.Intn(LineSize-off))
					rng.Read(data)
					got.UpdateIfPresent(key, off, data)
					want.UpdateIfPresent(key, off, data)
				default:
					got.InvalidateAll()
					want.InvalidateAll()
				}
				if got.Len() != len(want.lines) || got.Contains(key) != (want.lines[key] != nil) {
					t.Fatalf("cap %d seed %d op %d: %d lines resident (key %d: %v), reference %d (%v)",
						capacity, seed, op, got.Len(), key, got.Contains(key), len(want.lines), want.lines[key] != nil)
				}
				ref := L1Stats{Hits: want.hits, Misses: want.misses, Evictions: want.evictions, Flushes: want.flushes}
				if s := got.Stats(); s != ref {
					t.Fatalf("cap %d seed %d op %d: stats %+v, reference %+v", capacity, seed, op, s, ref)
				}
			}
			// Every resident line holds the reference contents.
			for key, ln := range want.lines {
				if g, ok := got.Lookup(key); !ok || !bytes.Equal(g, ln[:]) {
					t.Fatalf("cap %d seed %d: resident line %d = %v, reference %v", capacity, seed, key, g, ln[:])
				}
			}
		}
	}
}

// A warm cache fills (with eviction), hits, updates and invalidates
// without allocating.
func TestL1SteadyStateAllocatesNothing(t *testing.T) {
	c := NewL1(4)
	var line [LineSize]byte
	for k := uint64(0); k < 8; k++ {
		c.Fill(k, line)
	}
	key := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		c.Fill(key, line)
		c.Fill(key+1, line)
		c.Lookup(key)
		c.UpdateIfPresent(key, 3, line[:4])
		c.InvalidateAll()
		key += 7
	})
	if allocs != 0 {
		t.Errorf("steady-state L1 allocates %v times per round, want 0", allocs)
	}
}

// A drained write-combine line is the WCB's own: writing through a
// sequence of lines allocates nothing.
func TestWCBDrainAllocatesNothing(t *testing.T) {
	var w WCB
	data := []byte{1, 2, 3, 4}
	key := uint64(0)
	drains := 0
	allocs := testing.AllocsPerRun(100, func() {
		if d := w.Write(key, 8, data); d != nil {
			drains++
		}
		key++
	})
	if allocs != 0 || drains == 0 {
		t.Errorf("WCB.Write with drain: %v allocs per write over %d drains, want 0 allocs", allocs, drains)
	}
}
