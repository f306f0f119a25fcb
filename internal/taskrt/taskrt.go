// Package taskrt is a deterministic task-dataflow runtime for the vSCC,
// in the direction of BDDT-SCC (PAPERS.md): tasks declare in/out/inout
// accesses on versioned data regions, a dependence tracker releases
// successors as the region versions they need are produced, and one
// worker loop per RCCE rank executes ready tasks, stealing from sibling
// queues when its own runs dry.
//
// The runtime is layered on the existing stack rather than beside it:
// task-argument movement goes through the rcce gory one-sided interface
// (Put/Get staging through the owner rank's MPB half), so every byte a
// task moves crosses the simulated mesh, PCIe fabric and host
// communication task of the configured vscc scheme — including its
// fault injection and recovery machinery. Region payloads themselves
// live in the runtime's private-DRAM model (plain Go memory): the MPB
// staging traffic carries the cost and the wire behaviour, private
// memory carries the contents, mirroring how the research system keeps
// application data off-chip and uses the MPB as a staging buffer.
//
// Determinism: the runtime introduces no clock, randomness or
// concurrency of its own. All scheduler state (queues, versions,
// pending counts) is mutated only by rank processes, which the
// simulation kernel interleaves deterministically; steal decisions read
// that state at the stealing worker's current cycle and scan victims in
// a fixed order. Reruns and parallel sweep replicas are therefore
// byte-identical (see the identity suite).
package taskrt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// MaxRegionBytes bounds a single region so spec-driven graphs (and the
// fuzzer behind them) cannot ask for unbounded allocations.
const MaxRegionBytes = 1 << 20

// Staging layout within each rank's MPB payload area: two line-aligned
// halves for double-buffered bulk moves, and one reserved doorbell line
// at the top that peers write to wake an idle worker.
const (
	doorbellOff = rcce.PayloadBytes - 32
	stageHalf   = (doorbellOff / 2) &^ 31
	stageA      = 0
	stageB      = stageHalf
)

// AccessMode declares how a task touches a region.
type AccessMode int

// The access modes, with BDDT semantics: In is a read of the current
// version, Out produces the next version wholesale, InOut reads the
// current version and produces the next.
const (
	ModeIn AccessMode = iota
	ModeOut
	ModeInOut
)

// String names the mode as in the task-spec grammar.
func (m AccessMode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	}
	return "invalid"
}

// Access pairs a region with a mode.
type Access struct {
	Region *Region
	Mode   AccessMode
}

// In declares a read access.
func In(r *Region) Access { return Access{Region: r, Mode: ModeIn} }

// Out declares a write access.
func Out(r *Region) Access { return Access{Region: r, Mode: ModeOut} }

// InOut declares a read-modify-write access.
func InOut(r *Region) Access { return Access{Region: r, Mode: ModeInOut} }

// Region is one versioned data block. Its payload lives in the
// runtime's private-memory model; its owner rank's MPB half is the
// staging area every remote move of the region passes through.
type Region struct {
	id      int
	name    string
	bytes   int
	owner   int // requested owner rank; -1 = round-robin at seal
	data    []byte
	version int

	// Dependence-tracker tail state during graph construction.
	lastWriter   int // task id of the latest writer, -1 initially
	readersSince []int
	// writeSeq numbers the region's writers in construction order; each
	// writing access carries its stamp (writeSeq at declaration), the
	// version it is entitled to commit. See Runtime.publish.
	writeSeq int
	// committed trails version during a commit: version is claimed
	// before the staging move yields, committed only once the bytes are
	// in place. The gap is how a takeover detects a claimant that
	// stalled (froze with its device) mid-commit.
	committed int
}

// Name returns the region's unique name.
func (rg *Region) Name() string { return rg.name }

// Owner returns the owning worker rank (valid after Run/RunSerial).
func (rg *Region) Owner() int { return rg.owner }

// task states.
const (
	taskWaiting = iota
	taskReady
	taskRunning
	taskDone
)

// Task is one node of the dataflow graph.
type Task struct {
	id       int
	name     string
	flops    float64
	accesses []Access
	body     func(*TaskCtx)

	preds   []int // distinct predecessor ids (construction order)
	succs   []int // distinct successor ids (ascending by construction)
	pending int
	state   int
	home    int
	// stamps[i] is the version accesses[i] commits (0 for pure reads):
	// the exactly-once guard when device-loss re-execution races a
	// thawed original (see publish).
	stamps []int

	// Execution record, read by the property and rerun tests.
	executedBy int
	startSeq   int
	doneSeq    int
}

// Stats aggregates what the runtime did during one Run.
type Stats struct {
	Tasks      int      // tasks executed
	Steals     int      // tasks popped from a sibling's queue
	Doorbells  int      // idle-worker wakeup writes
	LocalMoves int      // region arguments already resident at the worker
	Moves      [3]int64 // remote moves by vscc.MoveClass
	MovedBytes int64    // remote argument bytes staged through MPBs
	Reexecs    int      // tasks re-issued off lost devices (Config.Reexec)
	LateDrops  int      // stamped commits dropped by exactly-once (thawed originals)
	Rehomes    int      // staging chunks re-routed around a lost owner rank
	Abandons   int      // in-flight staging ops abandoned on loss, body retried
	StalePops  int      // duplicate queue entries dropped at dispatch (reclaim raced a live original)
}

// MembershipView is the device-membership view task re-execution
// consults (implemented by *vscc.Membership): Lost reports a device that
// is down or mid-rejoin, i.e. currently unreachable.
type MembershipView interface {
	Lost(dev int) bool
}

// An idle worker's wait budget between queue scans starts at pollCycles,
// doubles up to maxPollCycles and resets when work is found.
const (
	pollCycles    sim.Cycles = 500
	maxPollCycles sim.Cycles = 8000
)

// Config parameterizes a runtime.
type Config struct {
	// Scheme is the vSCC communication scheme the session runs; it
	// selects the move-class thresholds (vscc.ClassifyMove).
	Scheme vscc.Scheme
	// Reexec enables task re-execution on device loss: tasks stranded
	// running on a lost device's workers are rolled back and re-issued
	// on survivors from the last committed region versions, staging
	// toward lost owners re-homes to the next live rank, and the
	// version-stamped commit keeps every task exactly-once when the
	// thawed originals eventually resume. Off (the default), a device
	// loss stalls the affected tasks until the rejoin replay completes —
	// the pre-existing behaviour, byte-identical code paths.
	Reexec bool
	// Membership is the device view Reexec consults; a nil view
	// disables re-execution even when Reexec is set (fault-free runs).
	Membership MembershipView
}

// Runtime is one task graph plus its execution state. A Runtime is
// single-use: build the graph, then call Run (or RunSerial) once.
type Runtime struct {
	cfg     Config
	regions []*Region
	byName  map[string]*Region
	tasks   []*Task
	sealed  bool
	ran     bool

	workers   int
	queues    [][]int
	completed int
	failed    bool
	seq       int
	execOrder []int
	stats     Stats
	// scratch is each worker's landing buffer for staged reads, one MPB
	// half, allocated on its first read. What lands there is never read.
	scratch [][]byte
	// free holds the buffers of task bodies that returned, by length,
	// for the next fetch or Out access of that size to reuse.
	free map[int][][]byte
	// doneCycle is the kernel cycle the last task committed (valid after
	// Run) — under re-execution it may precede the lost device's rejoin.
	doneCycle sim.Cycles
}

// New creates an empty runtime.
func New(cfg Config) *Runtime {
	return &Runtime{cfg: cfg, byName: make(map[string]*Region), free: make(map[int][][]byte)}
}

// Region declares a data region. owner is the staging rank (-1 =
// round-robin at seal time). The initial contents are zero at version 0.
func (rt *Runtime) Region(name string, bytes, owner int) (*Region, error) {
	if rt.sealed {
		return nil, fmt.Errorf("taskrt: region %q declared after Run", name)
	}
	if name == "" {
		return nil, fmt.Errorf("taskrt: region with empty name")
	}
	if _, dup := rt.byName[name]; dup {
		return nil, fmt.Errorf("taskrt: duplicate region %q", name)
	}
	if bytes <= 0 || bytes > MaxRegionBytes {
		return nil, fmt.Errorf("taskrt: region %q size %d outside (0, %d]", name, bytes, MaxRegionBytes)
	}
	if owner < -1 {
		return nil, fmt.Errorf("taskrt: region %q owner %d", name, owner)
	}
	rg := &Region{
		id: len(rt.regions), name: name, bytes: bytes, owner: owner,
		data: make([]byte, bytes), lastWriter: -1,
	}
	rt.regions = append(rt.regions, rg)
	rt.byName[name] = rg
	return rg, nil
}

// RegionByName looks a region up.
func (rt *Runtime) RegionByName(name string) (*Region, bool) {
	rg, ok := rt.byName[name]
	return rg, ok
}

// NumRegions returns the region count.
func (rt *Runtime) NumRegions() int { return len(rt.regions) }

// AddTask appends a task. Dependences on earlier tasks are derived from
// the declared accesses at this point: a read depends on the region's
// latest writer; a write depends on the latest writer and on every read
// issued since (WAW and WAR), then becomes the latest writer. flops is
// modelled compute charged before the body runs; body may be nil.
func (rt *Runtime) AddTask(name string, flops float64, accs []Access, body func(*TaskCtx)) (*Task, error) {
	if rt.sealed {
		return nil, fmt.Errorf("taskrt: task %q added after Run", name)
	}
	if name == "" {
		return nil, fmt.Errorf("taskrt: task with empty name")
	}
	if flops < 0 {
		return nil, fmt.Errorf("taskrt: task %q has negative flops", name)
	}
	for i, a := range accs {
		if a.Region == nil {
			return nil, fmt.Errorf("taskrt: task %q access %d has no region", name, i)
		}
		if rt.regions[a.Region.id] != a.Region {
			return nil, fmt.Errorf("taskrt: task %q accesses region %q of another runtime", name, a.Region.name)
		}
		for _, b := range accs[:i] {
			if b.Region == a.Region {
				return nil, fmt.Errorf("taskrt: task %q accesses region %q twice", name, a.Region.name)
			}
		}
	}
	t := &Task{id: len(rt.tasks), name: name, flops: flops, accesses: accs, body: body, executedBy: -1}
	t.stamps = make([]int, len(accs))
	for i, a := range accs {
		rg := a.Region
		if a.Mode == ModeIn || a.Mode == ModeInOut {
			rt.addDep(t, rg.lastWriter)
		}
		if a.Mode == ModeOut || a.Mode == ModeInOut {
			rt.addDep(t, rg.lastWriter)
			for _, rd := range rg.readersSince {
				rt.addDep(t, rd)
			}
			rg.lastWriter = t.id
			rg.readersSince = rg.readersSince[:0]
			rg.writeSeq++
			t.stamps[i] = rg.writeSeq
		}
		if a.Mode == ModeIn || a.Mode == ModeInOut {
			rg.readersSince = append(rg.readersSince, t.id)
		}
	}
	t.pending = len(t.preds)
	for _, p := range t.preds {
		pt := rt.tasks[p]
		pt.succs = append(pt.succs, t.id)
	}
	rt.tasks = append(rt.tasks, t)
	return t, nil
}

// addDep records a distinct dependence of t on task id pred (-1 = none).
func (rt *Runtime) addDep(t *Task, pred int) {
	if pred < 0 {
		return
	}
	for _, p := range t.preds {
		if p == pred {
			return
		}
	}
	t.preds = append(t.preds, pred)
}

// NumTasks returns the task count.
func (rt *Runtime) NumTasks() int { return len(rt.tasks) }

// Stats returns the execution statistics (valid after Run).
func (rt *Runtime) Stats() Stats { return rt.stats }

// CompletedAt returns the kernel cycle at which the last task finished
// (valid after Run). With re-execution this is the convergence point:
// it may precede the crashed device's rejoin.
func (rt *Runtime) CompletedAt() sim.Cycles { return rt.doneCycle }

// StateHash digests every region's name, version and contents, in
// region order — the fingerprint the identity and fault suites compare.
func (rt *Runtime) StateHash() string {
	h := sha256.New()
	var num [8]byte
	for _, rg := range rt.regions {
		h.Write([]byte(rg.name))
		binary.LittleEndian.PutUint64(num[:], uint64(rg.version))
		h.Write(num[:])
		h.Write(rg.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seal freezes the graph for execution on the given worker count:
// round-robin owners resolve, explicit owners and homes are validated,
// and the initially-ready tasks enter their home queues in id order.
func (rt *Runtime) seal(workers int) error {
	if rt.ran {
		return fmt.Errorf("taskrt: runtime already ran (single-use)")
	}
	if workers <= 0 {
		return fmt.Errorf("taskrt: %d workers", workers)
	}
	rt.ran = true
	rt.sealed = true
	rt.workers = workers
	for _, rg := range rt.regions {
		if rg.owner == -1 {
			rg.owner = rg.id % workers
		}
		if rg.owner >= workers {
			return fmt.Errorf("taskrt: region %q owner %d outside %d workers", rg.name, rg.owner, workers)
		}
	}
	rt.queues = make([][]int, workers)
	rt.scratch = make([][]byte, workers)
	for _, t := range rt.tasks {
		t.home = rt.homeOf(t)
		if t.pending == 0 {
			t.state = taskReady
			rt.queues[t.home] = append(rt.queues[t.home], t.id)
		}
	}
	return nil
}

// homeOf places a task: on the owner of its first written region (the
// output lands locally), else the owner of its first input, else spread
// by id.
func (rt *Runtime) homeOf(t *Task) int {
	for _, a := range t.accesses {
		if a.Mode == ModeOut || a.Mode == ModeInOut {
			return a.Region.owner
		}
	}
	for _, a := range t.accesses {
		return a.Region.owner
	}
	return t.id % rt.workers
}

// Run executes the graph on a session: every rank becomes one worker.
// The session must run a vSCC or RCCE protocol whose ranks may use the
// full MPB payload area (taskrt owns it for staging).
func (rt *Runtime) Run(session *rcce.Session) error {
	if err := rt.seal(session.NumRanks()); err != nil {
		return err
	}
	if err := session.Run(rt.worker); err != nil {
		return err
	}
	if rt.completed != len(rt.tasks) {
		return fmt.Errorf("taskrt: %d of %d tasks completed", rt.completed, len(rt.tasks))
	}
	return nil
}

// RunSerial executes the graph in task order in plain Go, with no
// simulation: the reference every parallel run must match byte for
// byte. Dependences are satisfied by construction (a task's
// predecessors all have smaller ids).
func (rt *Runtime) RunSerial(workers int) error {
	if err := rt.seal(workers); err != nil {
		return err
	}
	for _, t := range rt.tasks {
		if t.pending != 0 {
			return fmt.Errorf("taskrt: task %d %q not ready in id order", t.id, t.name)
		}
		t.state = taskRunning
		rt.runBody(nil, t)
		rt.finish(nil, t, 0)
	}
	return nil
}

// worker is the per-rank scheduler loop.
func (rt *Runtime) worker(r *rcce.Rank) {
	defer func() {
		if rec := recover(); rec != nil {
			// A failing task (e.g. a lost peer device surfacing from a
			// staging transfer) must also stop the idle workers, or the
			// kernel would run their poll events forever.
			rt.failed = true
			panic(rec)
		}
	}()
	w := r.ID()
	backoff := pollCycles
	for rt.completed < len(rt.tasks) && !rt.failed {
		id, stolen := rt.next(w)
		if id < 0 {
			// Idle: before napping, re-issue tasks stranded on lost
			// devices (no-op unless Config.Reexec armed them).
			if rt.reclaimLost(r, w) {
				continue
			}
			// Sleep until a store lands in our tile (a doorbell, or
			// staging traffic) or the budget expires, then rescan.
			r.WaitAnyLocalChangeFor(backoff)
			if backoff *= 2; backoff > maxPollCycles {
				backoff = maxPollCycles
			}
			continue
		}
		backoff = pollCycles
		if stolen {
			rt.stats.Steals++
			r.Sink().Add("taskrt.steals", 1)
		}
		rt.execute(r, w, rt.tasks[id])
	}
}

// next pops the oldest task of w's own queue, or — when it is empty —
// steals the oldest task of the first non-empty sibling queue, scanning
// (w+1, w+2, ...) mod workers. Queue contents are only ever mutated by
// rank processes at deterministic cycles, so the choice of victim is a
// pure function of kernel-clock-visible state.
func (rt *Runtime) next(w int) (id int, stolen bool) {
	if q := rt.queues[w]; len(q) > 0 {
		rt.queues[w] = q[1:]
		return q[0], false
	}
	for i := 1; i < rt.workers; i++ {
		v := (w + i) % rt.workers
		if q := rt.queues[v]; len(q) > 0 {
			rt.queues[v] = q[1:]
			return q[0], true
		}
	}
	return -1, false
}

// execute moves a task's inputs in, runs the body, publishes its
// outputs and releases its successors. Under re-execution a thawed
// original may reach the end of its body after a re-issued copy already
// finished the task; its commits dropped region by region (publish) and
// the completion bookkeeping is skipped here.
func (rt *Runtime) execute(r *rcce.Rank, w int, t *Task) {
	if t.pending != 0 || t.state != taskReady {
		if rt.cfg.Reexec && rt.cfg.Membership != nil && t.pending == 0 &&
			(t.state == taskRunning || t.state == taskDone) {
			// A stale duplicate: reclaim re-issued this task off a lost
			// executor, but fail-fast waits keep a lost device's ranks
			// running between chip operations, so the original can outrun
			// its own reclaim and finish first (or still be in flight).
			// The version stamps make duplicate execution harmless, and a
			// duplicate that is not needed at all is dropped right here.
			rt.stats.StalePops++
			if sink := r.Sink(); sink.Enabled() {
				sink.Add("taskrt.stale_pop", 1)
			}
			return
		}
		panic(fmt.Sprintf("taskrt: task %d %q dispatched while not ready (pending=%d state=%d)",
			t.id, t.name, t.pending, t.state))
	}
	t.state = taskRunning
	t.executedBy = w
	rt.seq++
	t.startSeq = rt.seq
	start := r.Now()
	for rt.tryBody(r, t) {
		// A staging op toward a lost device was abandoned mid-task:
		// re-run the body in place. Regions the first attempt already
		// committed drop as late writes; a claimed-but-uncommitted
		// region is taken over (publish), so the retry is exactly-once.
		rt.stats.Abandons++
		if sink := r.Sink(); sink.Enabled() {
			sink.Add("taskrt.abandon", 1)
		}
	}
	if t.state == taskDone {
		// Lost the exactly-once race: a re-issued copy committed while
		// this (stalled, now thawed) execution was still in flight.
		return
	}
	rt.finish(r, t, w)
	if sink := r.Sink(); sink.Enabled() {
		sink.Span(sink.Track("taskrt", fmt.Sprintf("w%03d", w)), t.name, start, r.Now())
	}
	r.Sink().Add("taskrt.tasks", 1)
}

// tryBody runs the task body once, absorbing a device-loss panic when
// re-execution is armed: under fail-fast waits (devretry=0) an in-flight
// staging op toward a device that crashes unwinds here with
// rcce.ErrDeviceLost, and the caller retries the body — by then the loss
// is membership-visible, so the retry's staging re-homes onto survivors.
// Reports whether a retry is needed. With Reexec off every panic
// propagates, keeping the pre-existing failure semantics bytewise.
func (rt *Runtime) tryBody(r *rcce.Rank, t *Task) (retry bool) {
	if !rt.cfg.Reexec || rt.cfg.Membership == nil || r == nil {
		rt.runBody(r, t)
		return false
	}
	defer func() {
		if rec := recover(); rec != nil {
			if err, ok := rec.(error); ok && errors.Is(err, rcce.ErrDeviceLost) {
				retry = true
				return
			}
			panic(rec)
		}
	}()
	rt.runBody(r, t)
	return false
}

// runBody fetches inputs, charges the modelled flops, runs the body and
// publishes outputs. r may be nil (serial reference): movement and
// compute charging are skipped, contents move identically.
func (rt *Runtime) runBody(r *rcce.Rank, t *Task) {
	tc := &TaskCtx{rt: rt, r: r, t: t, bufs: make([][]byte, len(t.accesses))}
	for i, a := range t.accesses {
		buf := rt.buffer(a.Region.bytes)
		if a.Mode == ModeIn || a.Mode == ModeInOut {
			rt.fetch(r, a.Region, buf)
		} else {
			clear(buf)
		}
		tc.bufs[i] = buf
	}
	if t.flops > 0 {
		tc.ComputeFlops(t.flops)
	}
	if t.body != nil {
		t.body(tc)
	}
	for i, a := range t.accesses {
		if a.Mode == ModeOut || a.Mode == ModeInOut {
			rt.publish(r, a.Region, tc.bufs[i], t.stamps[i])
		}
	}
	// publish copied every output into its region, so the buffers go
	// back for reuse. A body unwound by a device loss or a kill never
	// gets here and drops its buffers: a stalled execution never shares
	// one with its re-executed twin.
	for _, buf := range tc.bufs {
		rt.free[len(buf)] = append(rt.free[len(buf)], buf)
	}
}

// buffer returns a task-body buffer of n bytes, reusing one a returned
// body gave back. Its contents are stale: the caller overwrites or
// clears it.
func (rt *Runtime) buffer(n int) []byte {
	if bufs := rt.free[n]; len(bufs) > 0 {
		buf := bufs[len(bufs)-1]
		rt.free[n] = bufs[:len(bufs)-1]
		return buf
	}
	return make([]byte, n)
}

// finish marks a task done and releases its successors, pushing
// newly-ready tasks onto their home queues in ascending id order and
// waking each remote home worker with a doorbell write.
func (rt *Runtime) finish(r *rcce.Rank, t *Task, w int) {
	t.state = taskDone
	rt.seq++
	t.doneSeq = rt.seq
	rt.completed++
	rt.stats.Tasks++
	rt.execOrder = append(rt.execOrder, t.id)
	// Release every successor before the first doorbell: the release
	// loop must stay yield-free, or a device crash freezing this rank
	// inside a doorbell Put would leave a done task with unreleased
	// successors — invisible to reclaim, stalling re-execution until
	// the rejoin.
	var ring []int
	for _, sid := range t.succs {
		s := rt.tasks[sid]
		if s.pending--; s.pending == 0 {
			s.state = taskReady
			rt.queues[s.home] = append(rt.queues[s.home], sid)
			if r != nil && s.home != w && !rt.lostRank(r, s.home) {
				ring = append(ring, s.home)
			}
		}
	}
	for _, home := range ring {
		rt.ringDoorbell(r, home)
	}
	if rt.completed == len(rt.tasks) && r != nil {
		rt.doneCycle = r.Now()
	}
}

// ringDoorbell writes one line into the home worker's MPB to wake its
// WaitAnyLocalChangeFor nap early. (A home already known lost gets no
// doorbell at all — see finish.) Under re-execution the home's device
// can still die mid-write: the abandoned doorbell is simply dropped —
// survivors find the queued task on their next scan.
func (rt *Runtime) ringDoorbell(r *rcce.Rank, home int) {
	if rt.cfg.Reexec && rt.cfg.Membership != nil {
		defer func() {
			if rec := recover(); rec != nil {
				if err, ok := rec.(error); ok && errors.Is(err, rcce.ErrDeviceLost) {
					return
				}
				panic(rec)
			}
		}()
	}
	r.Put(home, doorbellOff, []byte{1})
	rt.stats.Doorbells++
}

// lostRank reports whether a rank's device is currently unreachable
// under the re-execution policy (always false with Reexec off, so the
// default configuration keeps its pre-existing code paths bytewise).
func (rt *Runtime) lostRank(r *rcce.Rank, rank int) bool {
	if !rt.cfg.Reexec || rt.cfg.Membership == nil || r == nil {
		return false
	}
	return rt.cfg.Membership.Lost(r.Session().PlaceOf(rank).Dev)
}

// liveSubstitute picks the staging stand-in for a lost owner rank: the
// first live rank scanning (owner+1, owner+2, ...) mod workers — a pure
// function of membership state at the caller's cycle, so reruns pick
// identically. With every peer lost the caller itself stages locally.
func (rt *Runtime) liveSubstitute(r *rcce.Rank, owner int) int {
	for i := 1; i < rt.workers; i++ {
		sub := (owner + i) % rt.workers
		if !rt.lostRank(r, sub) {
			return sub
		}
	}
	return r.ID()
}

// reclaimLost re-issues tasks stranded mid-execution on a lost device:
// each is rolled back to ready and pushed onto the scanning worker's
// own queue, to be re-run from the last committed region versions. The
// original either froze with its device — it eventually thaws and
// unwinds through the stamped commits, which drop its late writes — or
// was never truly frozen (fail-fast waits keep lost-device ranks
// running between chip operations) and finishes first, in which case
// the duplicate queue entry is dropped at dispatch (execute). Scanning
// in task-id order at the caller's cycle keeps reclaim deterministic; a
// re-issued task whose new executor is lost too is simply reclaimed
// again.
func (rt *Runtime) reclaimLost(r *rcce.Rank, w int) bool {
	if !rt.cfg.Reexec || rt.cfg.Membership == nil {
		return false
	}
	found := false
	for _, t := range rt.tasks {
		if t.state != taskRunning || !rt.lostRank(r, t.executedBy) {
			continue
		}
		dev := r.Session().PlaceOf(t.executedBy).Dev
		t.state = taskReady
		rt.queues[w] = append(rt.queues[w], t.id)
		rt.stats.Reexecs++
		if sink := r.Sink(); sink.Enabled() {
			sink.Add("taskrt.reexec", 1)
			sink.Add("taskrt.reexec.d"+strconv.Itoa(dev), 1)
		}
		found = true
	}
	return found
}

// fetch copies a region's contents into buf, a private buffer of its
// size, charging the movement from the owner's staging area when the
// region is remote.
func (rt *Runtime) fetch(r *rcce.Rank, rg *Region, buf []byte) {
	copy(buf, rg.data)
	rt.move(r, rg, true)
}

// publish stores a task's output buffer as the region's next version,
// charging the movement into the owner's staging area when remote. The
// stamp is the version this write is entitled to produce: a commit
// finding the region already at (or past) its stamp was beaten by a
// re-issued copy of the same task and drops — the exactly-once rule
// that lets a thawed original resume harmlessly after a device loss.
// Both executions compute the same bytes from the same committed
// inputs, so even a partially-overlapping pair of commits converges.
func (rt *Runtime) publish(r *rcce.Rank, rg *Region, buf []byte, stamp int) {
	if rg.version >= stamp {
		if rg.committed >= stamp {
			rt.lateDrop(r)
			return
		}
		// A twin execution claimed this version but stalled (froze with
		// its device) before the bytes landed: take the commit over.
		// Both executions computed the same bytes from the same
		// committed inputs, so the takeover is byte-transparent.
	} else {
		if rg.version != stamp-1 {
			panic(fmt.Sprintf("taskrt: region %q at version %d committed with stamp %d (dependence violation)",
				rg.name, rg.version, stamp))
		}
		// Claim before the staging move yields: a twin reaching this
		// point mid-move must not double-claim. No reader can observe
		// the claimed-but-unwritten window — every reader of this
		// version is a successor, released only after the task finishes.
		rg.version = stamp
	}
	rt.move(r, rg, false)
	if rg.committed >= stamp {
		// The twin finished its copy while our move was in flight.
		rt.lateDrop(r)
		return
	}
	if rg.committed != stamp-1 {
		panic(fmt.Sprintf("taskrt: region %q committed %d with stamp %d (dependence violation)",
			rg.name, rg.committed, stamp))
	}
	copy(rg.data, buf)
	rg.committed = stamp
}

// lateDrop counts a commit dropped by the exactly-once rule.
func (rt *Runtime) lateDrop(r *rcce.Rank) {
	rt.stats.LateDrops++
	if r == nil {
		return
	}
	if sink := r.Sink(); sink.Enabled() {
		sink.Add("taskrt.late_drop", 1)
	}
}

// move charges one region-granular transfer between the executing
// worker and the region's owner rank. The strategy follows the paper's
// thresholds (vscc.ClassifyMove): direct small transfers, a single
// cached-MPB staging pass, or vDMA-style chunks pipelined across both
// MPB halves. Local arguments cost one private-memory copy.
func (rt *Runtime) move(r *rcce.Rank, rg *Region, read bool) {
	if r == nil {
		return
	}
	if rg.owner == r.ID() {
		r.Ctx().CopyPrivate(rg.bytes)
		rt.stats.LocalMoves++
		return
	}
	class := vscc.ClassifyMove(rt.cfg.Scheme, rg.bytes)
	rt.stats.Moves[class]++
	rt.stats.MovedBytes += int64(rg.bytes)
	if sink := r.Sink(); sink.Enabled() {
		sink.Add("taskrt.move."+class.String(), 1)
		sink.Add("taskrt.move_bytes", int64(rg.bytes))
	}
	switch class {
	case vscc.MoveDirect:
		rt.stage(r, rg, read, rg.bytes, stageA)
	default:
		// Chunked staging. MoveCachedMPB passes every chunk through the
		// first MPB half; MoveVDMA double-buffers, alternating halves —
		// the virtual DMA controller's pipelining pattern (Fig. 4a/5).
		slot := stageA
		for off := 0; off < rg.bytes; off += stageHalf {
			rt.stage(r, rg, read, min(stageHalf, rg.bytes-off), slot)
			if class == vscc.MoveVDMA {
				slot = stageA + stageB - slot // the other half
			}
		}
	}
}

// stage moves n bytes of region rg between this worker and the owner's
// MPB staging slot: a Get when reading, a Put of the region's current
// contents when writing. The staged window is transport, not storage —
// contents authoritative in private memory.
//
// Under the re-execution policy a chunk toward a lost owner re-homes to
// the next live rank's staging slot. The check runs per chunk: a chunk
// already on the wire when a device fault fires lands during the drain
// window, and every later chunk routes around the outage instead of
// parking until the rejoin.
func (rt *Runtime) stage(r *rcce.Rank, rg *Region, read bool, n, slot int) {
	owner := rg.owner
	if rt.lostRank(r, owner) {
		owner = rt.liveSubstitute(r, owner)
		rt.stats.Rehomes++
		if sink := r.Sink(); sink.Enabled() {
			sink.Add("taskrt.rehome", 1)
		}
		if owner == r.ID() {
			// Every peer is lost: the staging pass degenerates to a
			// private-memory copy at the executing worker.
			r.Ctx().CopyPrivate(n)
			return
		}
	}
	if read {
		buf := rt.scratch[r.ID()]
		if buf == nil {
			buf = make([]byte, stageHalf)
			rt.scratch[r.ID()] = buf
		}
		r.Get(owner, slot, buf[:n])
		return
	}
	r.Put(owner, slot, rg.data[:n])
}

// TaskCtx is the execution context handed to a task body.
type TaskCtx struct {
	rt   *Runtime
	r    *rcce.Rank
	t    *Task
	bufs [][]byte
}

// Data returns the task-local buffer of a declared region: the fetched
// contents for In/InOut, a zeroed output buffer for Out. Writes to
// In-mode buffers are discarded. The buffer is valid only until the body
// returns: the runtime then hands it to a later task.
func (tc *TaskCtx) Data(rg *Region) []byte {
	for i, a := range tc.t.accesses {
		if a.Region == rg {
			return tc.bufs[i]
		}
	}
	panic(fmt.Sprintf("taskrt: task %q did not declare region %q", tc.t.name, rg.name))
}

// ComputeFlops charges floating-point work to the executing core.
func (tc *TaskCtx) ComputeFlops(n float64) {
	if tc.r != nil {
		tc.r.ComputeFlops(n)
	}
}
