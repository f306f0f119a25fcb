// Package sched implements the multi-tenant vSCC scheduler: a
// space-sharing job scheduler that admits many independent RCCE programs
// ("jobs") from several tenants onto one simulated vSCC fabric.
//
// The paper's flagship system couples five SCC devices into one 240-core
// cluster-on-a-chip; a machine of that size is naturally shared. The
// scheduler partitions the capacities that the communication stack
// models — cores (and with them each core's MPB half), LUT entries for
// inter-device address translation, and the host software cache — and
// leans on the per-tenant QoS hooks of internal/host (token-bucket PCIe
// bandwidth caps, deficit-round-robin fair queueing, cache partitions)
// so that co-located tenants cannot starve each other.
//
// Everything is kernel-clock deterministic: job arrivals are scheduled
// as simulation events ordered by (submit cycle, tenant id, spec order),
// admission is strictly FIFO with head-of-line blocking, and the core
// allocator packs device-major over sorted free lists. Two runs of the
// same workload produce byte-identical traces, metrics and results —
// the property the multitenant-identity CI gate asserts.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// TenantSpec is the tenant descriptor: identity plus the QoS envelope
// applied to every job the tenant runs.
type TenantSpec struct {
	// ID is the tenant identity (0..999, rendered as tNNN in traces).
	ID int
	// BWBytesPerCycle caps the tenant's PCIe bandwidth (token bucket in
	// internal/pcie); 0 leaves the tenant unthrottled.
	BWBytesPerCycle float64
	// BurstBytes is the token-bucket burst; 0 picks the host default.
	BurstBytes int
	// CacheLines is the tenant's static partition of the host software
	// cache, charged against Options.CacheLines at registration. 0
	// disables caching accounting for the tenant (its cached regions
	// are unpartitioned).
	CacheLines int
	// DevRetry is the per-job device-loss retry budget: a job of this
	// tenant whose session fails with rcce.ErrDeviceLost is aborted,
	// fully torn down (no leaked cores) and requeued once the lost
	// devices rejoin and their journal replay quiesces — at most
	// DevRetry times per job, after which the job is reaped as usual.
	// 0 (the default) keeps the reap-with-leak behaviour.
	DevRetry int
}

// validate rejects a QoS envelope the host cannot apply.
func (ts TenantSpec) validate() error {
	if ts.CacheLines < 0 || ts.BurstBytes < 0 || ts.DevRetry < 0 {
		return fmt.Errorf("tenant %d has a negative QoS parameter", ts.ID)
	}
	if err := pcie.CheckRate(ts.BWBytesPerCycle); ts.BWBytesPerCycle != 0 && err != nil {
		return fmt.Errorf("tenant %d bw=%g: %w", ts.ID, ts.BWBytesPerCycle, err)
	}
	return nil
}

// Kind names a job's program.
type Kind string

// The job kinds a workload file may request.
const (
	// KindPingPong pairs ranks (0,1), (2,3), ... for Size-byte round
	// trips, Reps rounds.
	KindPingPong Kind = "pingpong"
	// KindTraffic runs a ring exchange: every rank forwards Size bytes
	// to (id+1) mod n, Reps rounds — a replayable all-neighbour load.
	KindTraffic Kind = "traffic"
	// KindBT runs the NPB BT solver (square rank counts).
	KindBT Kind = "bt"
	// KindLU runs the NPB LU solver (Px*Py decompositions).
	KindLU Kind = "lu"
)

// JobSpec describes one job of a workload.
type JobSpec struct {
	Tenant int
	Name   string
	// Submit is the kernel cycle the job arrives at the scheduler.
	Submit sim.Cycles
	Kind   Kind
	Ranks  int
	// Scheme is the inter-device communication scheme for this job's
	// session; it must share the fabric's acknowledgement mode.
	Scheme vscc.Scheme
	// Size/Reps parameterize pingpong and traffic kinds.
	Size int
	Reps int
	// Class/Iters parameterize bt and lu kinds (NPB class name, timestep
	// override).
	Class string
	Iters int
}

// Status is a job's terminal state.
type Status int

// Job outcomes, in report order.
const (
	StatusPending Status = iota
	StatusRunning
	StatusOK
	StatusRejected
	StatusDeviceLost
	StatusFailed
)

// String names the status the way vsccd prints it.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusOK:
		return "ok"
	case StatusRejected:
		return "rejected"
	case StatusDeviceLost:
		return "device-lost"
	}
	return "failed"
}

// NoCycle marks a cycle field of a state a job never reached.
const NoCycle = ^sim.Cycles(0)

// Result is one job's outcome.
type Result struct {
	Spec   JobSpec
	Status Status
	// Submit, Admit and Done are kernel cycles; Admit and Done are
	// NoCycle for jobs that never reached the respective state.
	Submit sim.Cycles
	Admit  sim.Cycles
	Done   sim.Cycles
	// Places is the admitted placement (empty when rejected).
	Places []rcce.Place
	// Err is the rejection or completion error (nil for StatusOK).
	Err error
	// Leaked reports that the job was reaped with ranks still parked
	// (stranded peers of a lost device); its cores were not returned to
	// the free pool.
	Leaked bool
	// Retries counts how many times the job was requeued by its
	// tenant's devretry budget after a device loss.
	Retries int
	// LostDevs are the devices whose loss triggered those requeues
	// (sorted, distinct). Places reflects only the final placement, so
	// this is how a recovered job stays attributable to the fault
	// domain it survived (vsccd -assert-isolation).
	LostDevs []int
}

// Devices returns the sorted distinct devices of the placement.
func (r *Result) Devices() []int {
	seen := map[int]bool{}
	var devs []int
	for _, pl := range r.Places {
		if !seen[pl.Dev] {
			seen[pl.Dev] = true
			devs = append(devs, pl.Dev)
		}
	}
	sort.Ints(devs)
	return devs
}

// Options sizes the scheduler's capacity partitions.
type Options struct {
	// LUTSlotsPerDevice bounds the inter-device translation entries the
	// scheduler hands out per device: a job spanning S devices charges
	// S-1 slots per rank against the rank's device. 0 picks the default
	// (every core can map every remote device); negative disables
	// inter-device jobs entirely.
	LUTSlotsPerDevice int
	// CacheLines is the host software-cache pool partitioned among
	// tenants (TenantSpec.CacheLines). 0 picks the default 4096.
	CacheLines int
	// FailGrace is the reaping delay: when a rank of a job fails and
	// the rest do not finish within FailGrace cycles, the job is
	// force-finished and its cores leak. 0 picks 2,000,000 cycles.
	FailGrace sim.Cycles
}

// DefaultCacheLines is the host software-cache pool when Options does
// not size it.
const DefaultCacheLines = 4096

type tenant struct {
	spec  TenantSpec
	track trace.Track
	// Precomputed counter names (tracealloc: no dynamic names at record
	// sites).
	admitName, doneName, rejectName string
	requeueName, exhaustName        string
}

type job struct {
	spec JobSpec
	idx  int // order within the submitted slice, tie-breaker
	res  Result

	places    []rcce.Place
	lutCharge []int // per device, slots to return on teardown
	sess      *rcce.Session
	remaining int
	reaped    bool

	// devretry state: retryDecided latches the first failing rank's
	// recovery decision (retry vs reap); retrying marks the job parked
	// until its lost devices rejoin; awaiting counts placement devices
	// whose post-rejoin replay has not finished; retries counts
	// requeues consumed against the tenant budget; lostDevs are the
	// placement devices that were lost at decision time (for the
	// per-device counter mirrors).
	retryDecided bool
	retrying     bool
	awaiting     int
	retries      int
	lostDevs     []int
}

// Scheduler owns the admission queue and capacity pools of one vSCC.
type Scheduler struct {
	sys  *vscc.System
	k    *sim.Kernel
	sink *trace.Sink
	opts Options

	tenants   map[int]*tenant
	tenantIDs []int // sorted, for deterministic reporting

	free      [][]int // per device, sorted free core ids
	lutFree   []int   // per device
	lutPer    int     // slots per device at construction
	cacheFree int
	mpbInUse  int

	pending []*job // admission queue, head-of-line blocking
	jobs    []*job // arrival order (Submit, Tenant, idx)
	running int
	armed   bool
}

// New builds a scheduler over sys and enables the host QoS layer.
func New(sys *vscc.System, sink *trace.Sink, opts Options) *Scheduler {
	if opts.CacheLines == 0 {
		opts.CacheLines = DefaultCacheLines
	}
	if opts.LUTSlotsPerDevice == 0 {
		opts.LUTSlotsPerDevice = scc.NumCores * (len(sys.Chips) - 1)
	}
	if opts.LUTSlotsPerDevice < 0 {
		opts.LUTSlotsPerDevice = 0
	}
	if opts.FailGrace == 0 {
		opts.FailGrace = 2_000_000
	}
	s := &Scheduler{
		sys:       sys,
		k:         sys.Kernel,
		sink:      sink,
		opts:      opts,
		tenants:   make(map[int]*tenant),
		lutPer:    opts.LUTSlotsPerDevice,
		cacheFree: opts.CacheLines,
	}
	for range sys.Chips {
		free := make([]int, scc.NumCores)
		for c := range free {
			free[c] = c
		}
		s.free = append(s.free, free)
		s.lutFree = append(s.lutFree, opts.LUTSlotsPerDevice)
	}
	sys.Task.EnableQoS()
	return s
}

// AddTenant registers a tenant descriptor, charging its cache partition
// against the pool. Tenants must be registered before their jobs run.
func (s *Scheduler) AddTenant(ts TenantSpec) error {
	if ts.ID < 0 {
		return fmt.Errorf("sched: tenant id %d negative", ts.ID)
	}
	if _, ok := s.tenants[ts.ID]; ok {
		return fmt.Errorf("sched: tenant %d registered twice", ts.ID)
	}
	if err := ts.validate(); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	if ts.CacheLines > s.cacheFree {
		return fmt.Errorf("sched: tenant %d wants %d cache lines, only %d of %d left",
			ts.ID, ts.CacheLines, s.cacheFree, s.opts.CacheLines)
	}
	s.cacheFree -= ts.CacheLines
	tag := trace.TenantTag(ts.ID)
	t := &tenant{
		spec:        ts,
		track:       s.sink.Track("sched", tag),
		admitName:   "sched.admit." + tag,
		doneName:    "sched.done." + tag,
		rejectName:  "sched.reject." + tag,
		requeueName: "sched.requeued." + tag,
		exhaustName: "sched.retry_exhausted." + tag,
	}
	s.tenants[ts.ID] = t
	s.tenantIDs = append(s.tenantIDs, ts.ID)
	sort.Ints(s.tenantIDs)
	s.sys.Task.SetTenant(host.TenantConfig{
		ID:              ts.ID,
		BWBytesPerCycle: ts.BWBytesPerCycle,
		BurstBytes:      ts.BurstBytes,
		CacheLines:      ts.CacheLines,
	})
	return nil
}

// Tenants returns the registered tenant ids in ascending order.
func (s *Scheduler) Tenants() []int { return s.tenantIDs }

// Submit validates the specs and schedules their arrivals on the
// kernel clock. It must be called once, before the kernel runs; the
// deterministic admission order is (Submit, Tenant, position in specs).
func (s *Scheduler) Submit(specs []JobSpec) error {
	if s.armed {
		return errors.New("sched: Submit called twice")
	}
	s.armed = true
	ordered := make([]*job, 0, len(specs))
	for i, spec := range specs {
		if _, ok := s.tenants[spec.Tenant]; !ok {
			return fmt.Errorf("sched: job %q references unknown tenant %d", spec.Name, spec.Tenant)
		}
		if spec.Ranks <= 0 {
			return fmt.Errorf("sched: job %q has %d ranks", spec.Name, spec.Ranks)
		}
		if !spec.Scheme.Compatible(s.sys.Config.Scheme) {
			return fmt.Errorf("sched: job %q scheme %v cannot share a fabric with %v",
				spec.Name, spec.Scheme, s.sys.Config.Scheme)
		}
		if _, err := buildProgram(spec); err != nil {
			return fmt.Errorf("sched: job %q: %w", spec.Name, err)
		}
		j := &job{spec: spec, idx: i}
		j.res = Result{Spec: spec, Submit: spec.Submit, Admit: NoCycle, Done: NoCycle}
		ordered = append(ordered, j)
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].spec.Submit != ordered[b].spec.Submit {
			return ordered[a].spec.Submit < ordered[b].spec.Submit
		}
		if ordered[a].spec.Tenant != ordered[b].spec.Tenant {
			return ordered[a].spec.Tenant < ordered[b].spec.Tenant
		}
		return ordered[a].idx < ordered[b].idx
	})
	s.jobs = ordered
	// Kernel events at one cycle dispatch in scheduling order, so
	// arming arrivals in sorted order fixes same-cycle admission.
	for _, j := range ordered {
		j := j
		s.k.At(j.spec.Submit, func() { s.arrive(j) })
	}
	return nil
}

// arrive enqueues one job, rejecting it with a cycle-stamped error when
// it can never fit the machine.
func (s *Scheduler) arrive(j *job) {
	if err := s.feasible(j.spec.Ranks); err != nil {
		now := s.k.Now()
		j.res.Status = StatusRejected
		j.res.Done = now
		j.res.Err = fmt.Errorf("sched: cycle %d: job %q (tenant %d) rejected: %w",
			now, j.spec.Name, j.spec.Tenant, err)
		s.sink.Add("sched.rejected", 1)
		s.sink.Add(s.tenants[j.spec.Tenant].rejectName, 1)
		return
	}
	s.pending = append(s.pending, j)
	s.tryAdmit()
}

// feasible reports whether a job of n ranks could ever be admitted on an
// otherwise empty machine (cores, MaxRanks, LUT slots).
func (s *Scheduler) feasible(n int) error {
	if n > rcce.MaxRanks {
		return fmt.Errorf("%d ranks exceeds MaxRanks=%d", n, rcce.MaxRanks)
	}
	if total := len(s.sys.Chips) * scc.NumCores; n > total {
		return fmt.Errorf("%d ranks exceeds the machine's %d cores", n, total)
	}
	// Worst admissible placement on the empty machine: device-major over
	// all cores, as allocate packs.
	_, lut := pack(n, len(s.sys.Chips), func(int) int { return scc.NumCores })
	for d, need := range lut {
		if need > s.lutPer {
			return fmt.Errorf("needs %d LUT slots on device %d, partition holds %d", need, d, s.lutPer)
		}
	}
	return nil
}

// pack places n ranks device-major, filling device d's free(d) cores
// before the next device's, and charges each of the span devices used
// c*(span-1) LUT slots for its c ranks' windows onto the others. The
// caller checks that the devs devices hold n free cores.
func pack(n, devs int, free func(d int) int) (perDev, lut []int) {
	perDev, lut = make([]int, devs), make([]int, devs)
	span := 0
	for d, left := 0, n; d < devs && left > 0; d++ {
		perDev[d] = min(free(d), left)
		left -= perDev[d]
		if perDev[d] > 0 {
			span++
		}
	}
	if span > 1 {
		for d, c := range perDev {
			lut[d] = c * (span - 1)
		}
	}
	return perDev, lut
}

// tryAdmit starts queued jobs in FIFO order until the head no longer
// fits (head-of-line blocking keeps admission deterministic).
func (s *Scheduler) tryAdmit() {
	for len(s.pending) > 0 {
		j := s.pending[0]
		places, lut, ok := s.allocate(j.spec.Ranks)
		if !ok {
			break
		}
		s.pending = s.pending[1:]
		s.start(j, places, lut)
	}
	s.sink.Gauge("sched.pending", int64(len(s.pending)))
}

// allocate packs n ranks device-major over the sorted free lists and
// charges LUT slots for inter-device spans. It commits only on success.
func (s *Scheduler) allocate(n int) ([]rcce.Place, []int, bool) {
	total := 0
	for _, f := range s.free {
		total += len(f)
	}
	if n > total {
		return nil, nil, false
	}
	perDev, lut := pack(n, len(s.free), func(d int) int { return len(s.free[d]) })
	for d, need := range lut {
		if need > s.lutFree[d] {
			return nil, nil, false
		}
	}
	var places []rcce.Place
	for d, c := range perDev {
		for i := 0; i < c; i++ {
			places = append(places, rcce.Place{Dev: d, Core: s.free[d][i]})
		}
		s.free[d] = s.free[d][c:]
		s.lutFree[d] -= lut[d]
	}
	return places, lut, true
}

// start admits one job: bind its cores to the tenant, create the tenant
// session and launch every rank.
func (s *Scheduler) start(j *job, places []rcce.Place, lut []int) {
	now := s.k.Now()
	j.places, j.lutCharge = places, lut
	j.res.Admit = now
	j.res.Status = StatusRunning
	j.res.Places = places
	t := s.tenants[j.spec.Tenant]
	for _, pl := range places {
		s.sys.Task.BindCore(pl.Dev, pl.Core, j.spec.Tenant)
	}
	s.mpbInUse += len(places) * rcce.PayloadBytes
	s.running++
	s.sink.Add("sched.admitted", 1)
	s.sink.Add(t.admitName, 1)
	s.sink.Gauge("sched.running", int64(s.running))
	sess, err := s.sys.NewTenantSession(places, j.spec.Scheme, rcce.WithSink(s.sink))
	if err != nil {
		s.finish(j, fmt.Errorf("sched: job %q admission failed: %w", j.spec.Name, err))
		return
	}
	j.sess = sess
	program, err := buildProgram(j.spec)
	if err != nil {
		// Unreachable: Submit validated the spec.
		s.finish(j, err)
		return
	}
	j.remaining = j.spec.Ranks
	for rank := 0; rank < j.spec.Ranks; rank++ {
		rank := rank
		sess.Launch(rank, func(r *rcce.Rank) {
			// The session records a rank's panic only after this defer
			// unwinds, so the first failing rank would read a nil
			// sess.Err(); hand rankDone the panic value itself and
			// re-panic for the session's own bookkeeping.
			defer func() {
				if rec := recover(); rec != nil {
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("rank %d: %v", rank, rec)
					}
					s.rankDone(j, err)
					panic(rec)
				}
				s.rankDone(j, nil)
			}()
			program(r)
		})
	}
}

// rankDone runs as each rank's last deferred action; err is the rank's
// own failure (nil for a clean return). The recovery decision cannot
// consult sess.Err() here: the deciding rank is usually the first
// failure, whose error the session records only after this call.
func (s *Scheduler) rankDone(j *job, err error) {
	j.remaining--
	if j.remaining == 0 {
		if j.retrying {
			if j.awaiting == 0 {
				// The lost devices already rejoined (the abort path);
				// requeue once this rank has fully unwound.
				s.k.At(s.k.Now(), func() { s.requeue(j) })
			}
			// awaiting > 0: the rejoin hook requeues when it fires.
			return
		}
		if !j.reaped {
			s.k.At(s.k.Now(), func() { s.finish(j, j.sess.Err()) })
		}
		return
	}
	if err != nil && !j.reaped && !j.retryDecided {
		j.retryDecided = true
		if s.devRetryEligible(j, err) {
			s.parkForRetry(j)
			return
		}
		// A rank failed; peers parked on its flags may never return.
		// Arm a reaper so the job reaches a terminal state even then.
		s.k.After(s.opts.FailGrace, func() { s.reap(j) })
	}
}

// devRetryEligible decides the recovery path for a job whose first rank
// just failed: requeue (tenant budget left, device-loss error, a
// membership layer to wait on) or reap. An exhausted budget is counted
// here, once per exhaustion.
func (s *Scheduler) devRetryEligible(j *job, err error) bool {
	t := s.tenants[j.spec.Tenant]
	if t.spec.DevRetry <= 0 || s.sys.Membership == nil || !errors.Is(err, rcce.ErrDeviceLost) {
		return false
	}
	if j.retries >= t.spec.DevRetry {
		s.sink.Add("sched.retry_exhausted", 1)
		s.sink.Add(t.exhaustName, 1)
		for _, d := range s.lostPlacementDevs(j) {
			s.devMirror("sched.retry_exhausted", d, 1)
		}
		return false
	}
	return true
}

// lostPlacementDevs returns the job's placement devices that are not
// quiesced right now — the devices whose loss the retry is charged to.
func (s *Scheduler) lostPlacementDevs(j *job) []int {
	var lost []int
	for _, d := range j.res.Devices() {
		if !s.sys.Membership.Quiesced(d) {
			lost = append(lost, d)
		}
	}
	return lost
}

// devMirror records the per-device mirror of a scheduler counter. The
// dynamic name is only built once the sink is known enabled
// (tracealloc).
func (s *Scheduler) devMirror(name string, dev int, v int64) {
	if !s.sink.Enabled() {
		return
	}
	s.sink.Add(name+".d"+strconv.Itoa(dev), v)
}

// parkForRetry parks a failing job until every placement device is back
// up with its rejoin journal replay finished. Hooks on already-quiesced
// devices fire at the current cycle, so the job waits exactly for the
// lost ones; reclaiming cores any earlier would race the replay, which
// re-lands pre-crash frames on the restored memory.
func (s *Scheduler) parkForRetry(j *job) {
	j.retrying = true
	j.lostDevs = s.lostPlacementDevs(j)
	devs := j.res.Devices()
	j.awaiting = len(devs)
	for _, d := range devs {
		s.sys.Membership.AfterReplay(d, func() { s.rejoined(j) })
	}
}

// rejoined is the per-device rejoin hook of a parked job. Once the last
// placement device quiesces, the job's surviving ranks are aborted (they
// are parked on flags of the dead session and would otherwise strand
// forever); their unwinding drives remaining to zero, which requeues.
// A device lost again while the job waited re-arms its hook.
func (s *Scheduler) rejoined(j *job) {
	j.awaiting--
	if j.awaiting > 0 {
		return
	}
	for _, d := range j.res.Devices() {
		if !s.sys.Membership.Quiesced(d) {
			j.awaiting++
			s.sys.Membership.AfterReplay(d, func() { s.rejoined(j) })
		}
	}
	if j.awaiting > 0 {
		return
	}
	if j.remaining > 0 {
		j.sess.Abort(fmt.Errorf("sched: job %q tenant %d requeued after device rejoin", j.spec.Name, j.spec.Tenant))
		return
	}
	s.k.At(s.k.Now(), func() { s.requeue(j) })
}

// requeue tears a parked job's dead session down — releasing cores,
// MPB flag areas, LUT slots, host regions and tenant bindings exactly
// like a clean finish — and re-enqueues the job for admission at the
// current cycle, charging one unit of the tenant's devretry budget.
func (s *Scheduler) requeue(j *job) {
	if !j.retrying || j.remaining != 0 {
		return
	}
	j.retrying = false
	j.retryDecided = false
	t := s.tenants[j.spec.Tenant]
	s.release(j)
	j.retries++
	j.res.Retries = j.retries
	j.res.Status = StatusPending
	j.res.Admit = NoCycle
	j.res.Places = nil
	j.places = nil
	j.sess = nil
	s.sink.Add("sched.requeued", 1)
	s.sink.Add(t.requeueName, 1)
	for _, d := range j.lostDevs {
		s.devMirror("sched.requeued", d, 1)
		if i := sort.SearchInts(j.res.LostDevs, d); i == len(j.res.LostDevs) || j.res.LostDevs[i] != d {
			j.res.LostDevs = insertSorted(j.res.LostDevs, d)
		}
	}
	j.lostDevs = nil
	s.pending = append(s.pending, j)
	s.tryAdmit()
}

// reap force-finishes a job whose surviving ranks are stranded. Their
// cores stay occupied by parked processes, so they leak instead of
// returning to the pool.
func (s *Scheduler) reap(j *job) {
	if j.res.Status != StatusRunning || j.remaining == 0 || j.reaped {
		return
	}
	j.reaped = true
	j.res.Leaked = true
	s.sink.Add("sched.leaked_cores", int64(j.remaining))
	s.finish(j, j.sess.Err())
}

// finish records a job's terminal state and releases its capacity.
func (s *Scheduler) finish(j *job, err error) {
	if j.res.Status != StatusRunning {
		return
	}
	now := s.k.Now()
	j.res.Done = now
	j.res.Err = err
	switch {
	case err == nil:
		j.res.Status = StatusOK
	case errors.Is(err, rcce.ErrDeviceLost):
		j.res.Status = StatusDeviceLost
	default:
		j.res.Status = StatusFailed
	}
	t := s.tenants[j.spec.Tenant]
	if s.sink.Enabled() && j.res.Admit != NoCycle {
		s.sink.Span(t.track, j.spec.Name, j.res.Admit, now)
	}
	s.sink.Add("sched.done", 1)
	s.sink.Add(t.doneName, 1)
	s.release(j)
	s.tryAdmit()
}

// release returns a job's capacity: host regions, tenant bindings, then
// the pools. A reaped job keeps its regions and cores — parked ranks
// still own them.
func (s *Scheduler) release(j *job) {
	if !j.res.Leaked {
		if j.sess != nil {
			s.sys.ReleaseRegions(j.places)
		}
		for _, pl := range j.places {
			s.sys.Task.UnbindCore(pl.Dev, pl.Core)
			// Retire before wiping, so no write still in flight lands on
			// these MPB bytes once a successor session owns them: even a
			// clean finish leaves posted flag writes behind (a sender
			// never awaits its own final vDMA completion flag), and a
			// requeued job has its dead ranks' writes and the rejoin
			// replay of their journaled frames.
			s.sys.Task.RetireCore(pl.Dev, pl.Core)
			s.wipeFlags(pl)
		}
		s.mpbInUse -= len(j.places) * rcce.PayloadBytes
		for _, pl := range j.places {
			s.free[pl.Dev] = insertSorted(s.free[pl.Dev], pl.Core)
		}
	}
	for d, n := range j.lutCharge {
		s.lutFree[d] += n
	}
	j.lutCharge = nil
	s.running--
	s.sink.Gauge("sched.running", int64(s.running))
}

// wipeFlags zeroes a released core's MPB flag area — the scheduler's
// equivalent of the RCCE startup script clearing the MPB. Schemes leave
// asymmetric flag residue behind (vDMA raises ready/notify flags its
// own handshake never re-reads); a successor session on the same core
// would consume them as phantom signals and desynchronize.
func (s *Scheduler) wipeFlags(pl rcce.Place) {
	tile := scc.CoreTile(pl.Core)
	base := scc.CoreLMBOffset(pl.Core)
	s.sys.Chips[pl.Dev].HostWriteLMB(tile, base+rcce.PayloadBytes, flagZeros[:])
}

// flagZeros is the one zero block wipeFlags stores: the LMB and every
// write observer (the checkpoint log) copy what they are handed.
var flagZeros [mem.CoreLMBSize - rcce.PayloadBytes]byte

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// Capacity is a snapshot of the free pools, for tests and reporting.
type Capacity struct {
	FreeCores      []int // per device
	FreeLUT        []int // per device
	FreeCacheLines int
	MPBBytesInUse  int
}

// Capacity snapshots the current pools.
func (s *Scheduler) Capacity() Capacity {
	c := Capacity{
		FreeLUT:        append([]int(nil), s.lutFree...),
		FreeCacheLines: s.cacheFree,
		MPBBytesInUse:  s.mpbInUse,
	}
	for _, f := range s.free {
		c.FreeCores = append(c.FreeCores, len(f))
	}
	return c
}

// AllTerminal reports whether every submitted job reached a terminal
// state — the condition under which a kernel deadlock report after the
// run is the expected residue of stranded ranks on a lost device.
func (s *Scheduler) AllTerminal() bool {
	for _, j := range s.jobs {
		if j.res.Status == StatusPending || j.res.Status == StatusRunning {
			return false
		}
	}
	return true
}

// Results returns every job's outcome in arrival order.
func (s *Scheduler) Results() []Result {
	res := make([]Result, len(s.jobs))
	for i, j := range s.jobs {
		res[i] = j.res
	}
	return res
}
