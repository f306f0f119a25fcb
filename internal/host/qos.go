// Multi-tenant QoS for the communication task. The fabric-sharing
// scheduler (internal/sched) arms this layer so that independent jobs
// coexisting on one vSCC cannot starve each other through the shared
// host machinery:
//
//   - a per-tenant token bucket (pcie.TokenBucket) caps the PCIe
//     bandwidth a tenant injects, charged at every point where a
//     tenant-attributable process crosses to the host (reads, writes,
//     MMIO, vDMA bursts, prefetch/flush/stream DMA);
//   - deficit-round-robin fair queueing replaces the plain FIFO in the
//     per-device forwarder daemons, so one tenant's delivery backlog
//     cannot monopolize a device's host-to-device link;
//   - per-tenant software-cache partitions bound how many host cache
//     lines a tenant keeps resident, with intra-tenant FIFO eviction —
//     one tenant can never evict another tenant's lines.
//
// Everything here advances on the kernel clock only. When no tenants
// are configured (EnableQoS never called) every hook short-circuits on
// a nil pointer and the task behaves byte-identically to before.
package host

import (
	"fmt"

	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// TenantConfig describes one tenant's QoS envelope.
type TenantConfig struct {
	// ID is the tenant identifier (labels metrics as trace.TenantTag).
	ID int
	// BWBytesPerCycle caps the tenant's injected PCIe bandwidth; 0
	// leaves the tenant unshaped.
	BWBytesPerCycle float64
	// BurstBytes is the token-bucket burst allowance (defaults to 4 KB
	// when a rate is set).
	BurstBytes int
	// CacheLines bounds the tenant's resident host-software-cache
	// lines; 0 leaves the tenant unpartitioned.
	CacheLines int
}

// tenantQoS is the live per-tenant state.
type tenantQoS struct {
	id     int
	t      *Task
	bucket *pcie.TokenBucket

	// Cache partition: resident counts lines currently valid in entries
	// attributed to this tenant; fifo orders them by validation for
	// intra-tenant eviction.
	cacheQuota int
	resident   int
	fifo       []cacheRef
	fifoHead   int
	seq        uint64

	// Precomputed trace names (tracealloc: no dynamic names at record
	// sites).
	bytesName, waitName, evictName string
}

// cacheRef pins one validated line; stamp detects re-validation so a
// stale ref is skipped rather than evicting a newer incarnation.
type cacheRef struct {
	e     *cacheEntry
	line  int
	stamp uint64
}

// qosState is the task-wide multi-tenant state.
type qosState struct {
	tenants map[int]*tenantQoS
	byCore  map[[2]int]*tenantQoS // (dev, core) -> tenant
	drr     []*drrQueue           // per destination device
}

// drrQuantum is the bytes of host-to-device service each active tenant
// earns per deficit-round-robin round.
const drrQuantum = 4 * mem.LineSize

// EnableQoS arms the multi-tenant layer: per-device deficit-round-robin
// delivery queues (drrQuantum bytes of service per tenant per round) and
// the tenant table consulted by the bandwidth and cache hooks. It must be
// called before the kernel runs — the forwarder daemons pick their queue
// discipline on first dispatch.
func (t *Task) EnableQoS() {
	if t.qos != nil {
		return
	}
	q := &qosState{
		tenants: make(map[int]*tenantQoS),
		byCore:  make(map[[2]int]*tenantQoS),
	}
	for d := range t.Chips {
		q.drr = append(q.drr, newDRRQueue(t.Kernel, d))
	}
	t.qos = q
}

// SetTenant creates or reconfigures a tenant's QoS record.
func (t *Task) SetTenant(cfg TenantConfig) {
	q := t.qos.tenants[cfg.ID]
	if q == nil {
		tag := trace.TenantTag(cfg.ID)
		q = &tenantQoS{
			id:        cfg.ID,
			t:         t,
			bytesName: "qos.bytes." + tag,
			waitName:  "qos.bw_wait." + tag,
			evictName: "host.cache_evict." + tag,
		}
		t.qos.tenants[cfg.ID] = q
	}
	if cfg.BWBytesPerCycle > 0 {
		burst := cfg.BurstBytes
		if burst <= 0 {
			burst = 4096
		}
		q.bucket = pcie.NewTokenBucket(cfg.BWBytesPerCycle, burst)
	} else {
		q.bucket = nil
	}
	q.cacheQuota = cfg.CacheLines
}

// BindCore attributes a core's off-chip traffic (and the regions it
// registers) to a tenant. The scheduler binds before registering the
// tenant's session regions and unbinds at teardown, so reused cores
// re-attribute cleanly.
func (t *Task) BindCore(dev, core, tenant int) {
	t.qos.byCore[[2]int{dev, core}] = t.qos.tenants[tenant]
}

// UnbindCore releases a core's tenant attribution.
func (t *Task) UnbindCore(dev, core int) {
	delete(t.qos.byCore, [2]int{dev, core})
}

// tenantByCore resolves a core's tenant record; nil when QoS is off or
// the core is unbound (system traffic).
func (t *Task) tenantByCore(dev, core int) *tenantQoS {
	if t.qos == nil {
		return nil
	}
	return t.qos.byCore[[2]int{dev, core}]
}

// chargeBW spends bytes from the source core's tenant bucket, delaying
// the calling process while the tenant is over its bandwidth cap.
func (t *Task) chargeBW(p *sim.Proc, dev, core, bytes int) {
	t.chargeTenant(p, t.tenantByCore(dev, core), bytes)
}

// chargeBWRegion is chargeBW attributed through a region's owner.
func (t *Task) chargeBWRegion(p *sim.Proc, rg *Region, bytes int) {
	t.chargeTenant(p, t.tenantByCore(rg.Dev, rg.Owner), bytes)
}

func (t *Task) chargeTenant(p *sim.Proc, q *tenantQoS, bytes int) {
	if q == nil {
		return
	}
	if wait := q.bucket.Take(p, bytes); wait > 0 {
		t.sink.Add(q.waitName, int64(wait))
	}
	t.sink.Add(q.bytesName, int64(bytes))
}

// tenantAt resolves the tenant owning the region a delivery lands in.
// Unregistered targets (or unbound owners) fall to class -1, which the
// DRR queue serves like any other class.
func (t *Task) tenantAt(dev, tile, off int) int {
	rg := t.regions.find(dev, tile, off)
	if rg == nil {
		return -1
	}
	if q := t.tenantByCore(rg.Dev, rg.Owner); q != nil {
		return q.id
	}
	return -1
}

// --- cache partitioning -------------------------------------------------

// noteValid records one invalid->valid line transition of an entry
// attributed to this tenant and evicts the tenant's own oldest lines
// while it is over quota.
func (q *tenantQoS) noteValid(e *cacheEntry, line int) {
	q.seq++
	if e.stamps == nil {
		e.stamps = make([]uint64, len(e.valid))
	}
	e.stamps[line] = q.seq
	if q.fifoHead == len(q.fifo) {
		q.fifo = q.fifo[:0]
		q.fifoHead = 0
	}
	q.fifo = append(q.fifo, cacheRef{e: e, line: line, stamp: q.seq})
	q.resident++
	for q.resident > q.cacheQuota && q.cacheQuota > 0 {
		if !q.evictOldest() {
			break
		}
	}
}

// noteInvalid records one valid->invalid transition (owner invalidate,
// crash reset, or region teardown).
func (q *tenantQoS) noteInvalid() { q.resident-- }

// evictOldest drops the tenant's oldest still-valid line. Stale refs
// (already invalidated, or re-validated with a newer stamp) are skipped
// lazily. The evicted line becomes a plain miss: the next reader takes
// the transparently forwarded slow path, so correctness is unaffected.
func (q *tenantQoS) evictOldest() bool {
	for q.fifoHead < len(q.fifo) {
		ref := q.fifo[q.fifoHead]
		q.fifo[q.fifoHead] = cacheRef{}
		q.fifoHead++
		if !ref.e.valid[ref.line] || ref.e.stamps[ref.line] != ref.stamp {
			continue
		}
		// Direct drop, not cacheEntry.invalidate: an eviction is a
		// capacity decision, so it must not clip the owner's announced
		// hot range.
		ref.e.valid[ref.line] = false
		q.resident--
		q.t.sink.Add(q.evictName, 1)
		ref.e.cond.Broadcast()
		return true
	}
	return false
}

// --- deficit round robin ------------------------------------------------

// drrQueue is one device's multi-class delivery queue: per-tenant FIFOs
// served by deficit round robin. Within a tenant, delivery order is
// exactly the old single-FIFO order, preserving the data-before-flag
// guarantee per source; across tenants, each active class earns
// drrQuantum bytes of host-to-device service per round.
type drrQueue struct {
	cond    *sim.Cond
	classes map[int]*drrClass
	active  []*drrClass // round-robin service order
	total   int
}

type drrClass struct {
	tenant  int
	items   []*landing
	head    int
	deficit int
	queued  bool // on the active list
}

func newDRRQueue(k *sim.Kernel, dev int) *drrQueue {
	return &drrQueue{
		cond:    sim.NewCond(k, fmt.Sprintf("drrq.d%d", dev)),
		classes: make(map[int]*drrClass),
	}
}

func (q *drrQueue) class(tenant int) *drrClass {
	c, ok := q.classes[tenant]
	if !ok {
		c = &drrClass{tenant: tenant}
		q.classes[tenant] = c
	}
	return c
}

func (c *drrClass) size() int { return len(c.items) - c.head }

// drrCost is a delivery's service cost in bytes on the H2D link.
func drrCost(it *landing) int {
	if n := len(it.data); n > 0 {
		return n
	}
	return 1
}

// enqueue adds one delivery to a tenant's class and wakes the forwarder.
func (q *drrQueue) enqueue(tenant int, it *landing) {
	c := q.class(tenant)
	if c.head == len(c.items) {
		c.items = c.items[:0]
		c.head = 0
	}
	c.items = append(c.items, it)
	if !c.queued {
		c.queued = true
		c.deficit = drrQuantum
		q.active = append(q.active, c)
	}
	q.total++
	q.cond.Signal()
}

// pop returns the next delivery under DRR, blocking while empty.
func (q *drrQueue) pop(p *sim.Proc) *landing {
	for q.total == 0 {
		q.cond.Wait(p)
	}
	for {
		c := q.active[0]
		if c.size() == 0 {
			// Fully served earlier in this visit; retire from the round.
			c.queued = false
			c.deficit = 0
			q.active = q.active[1:]
			continue
		}
		cost := drrCost(c.items[c.head])
		if c.deficit >= cost {
			it := c.items[c.head]
			c.items[c.head] = nil
			c.head++
			c.deficit -= cost
			q.total--
			if c.size() == 0 {
				c.queued = false
				c.deficit = 0
				q.active = q.active[1:]
			}
			return it
		}
		// Quantum exhausted: move to the back of the round and recharge.
		q.active = append(q.active[1:], c)
		c.deficit += drrQuantum
	}
}

// --- region teardown ----------------------------------------------------

// UnregisterAt removes the region containing (dev, tile, off) from the
// classification table along with all derived host state: the software
// cache copy (its valid lines release the owner tenant's partition),
// the write-combining buffer (un-flushed bytes are dropped with the
// tenant), active streams, and buffered SIF lines. It reports whether a
// region was found. The multi-tenant scheduler calls this at tenant
// teardown so a later tenant can re-register the same MPB window with a
// different mode.
func (t *Task) UnregisterAt(dev, tile, off int) bool {
	rg := t.regions.find(dev, tile, off)
	if rg == nil {
		return false
	}
	t.unregister(rg)
	return true
}

func (t *Task) unregister(rg *Region) {
	t.regions.remove(rg)
	if e := t.caches[rg]; e != nil {
		e.invalidate(rg.Off, rg.Len)
		delete(t.caches, rg)
		for i, le := range t.cacheList {
			if le == e {
				t.cacheList = append(t.cacheList[:i], t.cacheList[i+1:]...)
				break
			}
		}
	}
	if w := t.wcbs[rg]; w != nil {
		delete(t.wcbs, rg)
		for i, lw := range t.wcbList {
			if lw == w {
				t.wcbList = append(t.wcbList[:i], t.wcbList[i+1:]...)
				break
			}
		}
	}
	t.killStreams(rg)
	for d := range t.Chips {
		delete(t.streams, streamKey{readerDev: d, rg: rg})
	}
	for _, sb := range t.sifBufs {
		sb.invalidateRange(rg.Dev, rg.Tile, rg.Off, rg.Len)
	}
}
