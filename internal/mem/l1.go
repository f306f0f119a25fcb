package mem

// L1 models the first-level cache behaviour of the SCC's MPBT memory
// type. MPBT data in write-through configuration is cached only in L1;
// all deeper caches are bypassed. There is no hardware coherence: a line
// cached here goes stale the moment another core writes the underlying
// MPB, until the owning core executes CL1INVMB (modelled by
// InvalidateAll), which invalidates every MPBT-tagged line in one
// instruction.
//
// The cache stores real line contents so that a missing invalidation
// produces genuinely stale reads, reproducing the SCC programming model.
//
// Lines live in a FIFO ring of slots: slot i holds keys[i]'s contents,
// index maps a resident key to its slot, and the ring grows on demand up
// to maxLines. Eviction replaces the oldest slot in place, so a warm
// cache fills, hits and invalidates without allocating.
type L1 struct {
	index    map[uint64]int32
	keys     []uint64
	lines    [][LineSize]byte
	head     int // oldest resident slot
	n        int // resident lines
	maxLines int

	hits      uint64
	misses    uint64
	evictions uint64
	flushes   uint64
}

// NewL1 returns a cache holding at most maxLines MPBT lines. The SCC's
// 16 KB L1 data cache holds 512 lines; MPBT data shares it with private
// data, so smaller budgets are realistic too.
func NewL1(maxLines int) *L1 {
	if maxLines <= 0 {
		panic("mem: L1 with non-positive capacity")
	}
	return &L1{index: make(map[uint64]int32), maxLines: maxLines}
}

// Lookup returns the cached copy of the line keyed by key, if present.
// The returned slice aliases cache storage until the next Fill; callers
// must not modify it.
func (c *L1) Lookup(key uint64) ([]byte, bool) {
	if i, ok := c.index[key]; ok {
		c.hits++
		return c.lines[i][:], true
	}
	c.misses++
	return nil, false
}

// Contains reports whether the line is cached, without touching hit/miss
// counters.
func (c *L1) Contains(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Fill inserts a line fetched from memory, evicting the oldest line if
// the cache is full.
func (c *L1) Fill(key uint64, data [LineSize]byte) {
	i, ok := c.index[key]
	if !ok {
		i = c.slot()
		c.keys[i] = key
		c.index[key] = i
	}
	c.lines[i] = data
}

// slot returns the ring slot for a new line: the next free one while
// the cache is not full (the ring then starts at slot 0, since only a
// full cache evicts and only InvalidateAll empties it), else the oldest,
// evicted.
func (c *L1) slot() int32 {
	if c.n < c.maxLines {
		if c.n == len(c.keys) {
			c.keys = append(c.keys, 0)
			c.lines = append(c.lines, [LineSize]byte{})
		}
		c.n++
		return int32(c.n - 1)
	}
	i := c.head
	delete(c.index, c.keys[i])
	c.evictions++
	if c.head++; c.head == c.maxLines {
		c.head = 0
	}
	return int32(i)
}

// UpdateIfPresent applies a write-through store to the cached copy, if
// the line is resident. off is the byte offset within the line.
func (c *L1) UpdateIfPresent(key uint64, off int, data []byte) {
	if i, ok := c.index[key]; ok {
		copy(c.lines[i][off:], data)
	}
}

// InvalidateAll models CL1INVMB: every MPBT line is dropped in a single
// instruction.
func (c *L1) InvalidateAll() {
	if c.n > 0 {
		clear(c.index)
		c.head, c.n = 0, 0
	}
	c.flushes++
}

// Len reports the number of resident lines.
func (c *L1) Len() int { return c.n }

// L1Stats is a snapshot of cache counters.
type L1Stats struct {
	Hits, Misses, Evictions, Flushes uint64
}

// Stats returns counters accumulated since creation.
func (c *L1) Stats() L1Stats {
	return L1Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Flushes: c.flushes}
}
