package chaos

import (
	"fmt"
	"strings"
	"sync"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sched"
	"vscc/internal/sim"
	"vscc/internal/taskrt"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// The two recovery harnesses the campaign drives. Both run on a
// 2-device VDMA system, the smallest fabric where device loss strands
// cross-device state; their base specs pin the seed, the checkpoint
// cadence and a fail-fast wait ladder (tight budget, deep retries) so
// losses are detected well inside any generated outage window.

// SchedBase is the scheduler target's base spec. DeviceRetry stays off:
// job recovery is the scheduler's requeue path, not transparent stalls.
const SchedBase = "seed=11,ckpt=50000,budget=100000,waitretries=8"

// TaskrtBase is the task-runtime target's base spec; re-execution needs
// the same fail-fast waits so survivors abandon in-flight operations
// instead of parking until the rejoin.
const TaskrtBase = "seed=11,ckpt=30000,budget=100000,waitretries=8"

// SchedTarget drives the devretry admission path: a 60-rank traffic
// ring spanning both devices, owned by a tenant with a retry budget
// generously above the campaign's fault count. Invariants: every job
// reaches a terminal state; a job that finishes ok neither leaks cores
// nor leaves the free pools short; no job ends failed or rejected; and
// once every job recovered, both devices are back to fully free.
func SchedTarget() Target {
	return Target{Name: "sched", Base: SchedBase, Run: runSched}
}

func runSched(spec string) (string, []string) {
	fcfg, err := fault.ParseSpec(spec)
	if err != nil {
		return "", []string{fmt.Sprintf("parse: %v", err)}
	}
	k := sim.NewKernel()
	// A campaign runs hundreds of kernels in one process, and each leaves
	// daemons and stranded ranks parked. Deferred, so that the digest with
	// its metrics report is taken first: unwinding must not move it.
	defer k.Close()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA, Faults: fcfg})
	if err != nil {
		return "", []string{fmt.Sprintf("system: %v", err)}
	}
	sink := trace.NewSink(k)
	sys.Instrument(sink)
	s := sched.New(sys, sink, sched.Options{})
	if err := s.AddTenant(sched.TenantSpec{ID: 1, DevRetry: 8}); err != nil {
		return "", []string{fmt.Sprintf("tenant: %v", err)}
	}
	if err := s.Submit([]sched.JobSpec{{Tenant: 1, Name: "span", Kind: sched.KindTraffic,
		Ranks: 60, Scheme: vscc.SchemeVDMA, Size: 4096, Reps: 3}}); err != nil {
		return "", []string{fmt.Sprintf("submit: %v", err)}
	}
	kerr := k.Run()

	var problems []string
	if !s.AllTerminal() {
		problems = append(problems, fmt.Sprintf("jobs left non-terminal (kernel: %v)", kerr))
	} else if kerr != nil && !strings.Contains(kerr.Error(), "deadlock") {
		// Stranded ranks of a reaped job legitimately deadlock the
		// kernel; anything else is a harness failure.
		problems = append(problems, fmt.Sprintf("kernel: %v", kerr))
	}
	var b strings.Builder
	recovered := s.AllTerminal()
	for _, r := range s.Results() {
		fmt.Fprintf(&b, "job %s status=%s retries=%d leaked=%v admit=%d done=%d devs=%v\n",
			r.Spec.Name, r.Status, r.Retries, r.Leaked, r.Admit, r.Done, r.Devices())
		switch r.Status {
		case sched.StatusOK:
			if r.Leaked {
				problems = append(problems, fmt.Sprintf("job %s finished ok but leaked cores", r.Spec.Name))
			}
		case sched.StatusDeviceLost:
			recovered = false // exhausted budget: the leak is the contract
		default:
			recovered = false
			problems = append(problems, fmt.Sprintf("job %s finished %s: %v", r.Spec.Name, r.Status, r.Err))
		}
	}
	if recovered {
		for d, free := range s.Capacity().FreeCores {
			if free != scc.NumCores {
				problems = append(problems, fmt.Sprintf("device %d: %d free cores after recovery, want %d", d, free, scc.NumCores))
			}
		}
	}
	b.WriteString(sink.MetricsReport())
	return b.String(), problems
}

// TaskrtTarget drives task re-execution: the stencil workload with
// Reexec armed under fail-fast waits. Invariants: the run completes,
// and its state hash matches the fault-free serial reference — the
// clean-vs-faulted convergence check — regardless of what the schedule
// crashed, severed or stalled.
func TaskrtTarget() Target {
	return Target{Name: "taskrt", Base: TaskrtBase, Run: runTaskrt}
}

// taskrtRefHash is the fault-free reference hash of the stencil
// decomposition, computed once: it depends only on the build shape.
var taskrtRefHash = sync.OnceValue(func() string {
	ref := taskrt.New(taskrt.Config{})
	if err := taskrt.Build(ref, "stencil", 4, 6, 4); err != nil {
		return "build: " + err.Error()
	}
	if err := ref.RunSerial(4); err != nil {
		return "serial: " + err.Error()
	}
	return ref.StateHash()
})

func runTaskrt(spec string) (string, []string) {
	fcfg, err := fault.ParseSpec(spec)
	if err != nil {
		return "", []string{fmt.Sprintf("parse: %v", err)}
	}
	k := sim.NewKernel()
	// A campaign runs hundreds of kernels in one process, and each leaves
	// daemons and stranded ranks parked. Deferred, so that the digest with
	// its metrics report is taken first: unwinding must not move it.
	defer k.Close()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA, Faults: fcfg})
	if err != nil {
		return "", []string{fmt.Sprintf("system: %v", err)}
	}
	sink := trace.NewSink(k)
	sys.Instrument(sink)
	session, err := sys.NewSessionAt([]rcce.Place{
		{Dev: 0, Core: 0}, {Dev: 1, Core: 0}, {Dev: 0, Core: 1}, {Dev: 1, Core: 1},
	}, rcce.WithSink(sink))
	if err != nil {
		return "", []string{fmt.Sprintf("session: %v", err)}
	}
	cfg := taskrt.Config{Scheme: vscc.SchemeVDMA, Reexec: true}
	if sys.Membership != nil {
		cfg.Membership = sys.Membership
	}
	rt := taskrt.New(cfg)
	if err := taskrt.Build(rt, "stencil", 4, 6, 4); err != nil {
		return "", []string{fmt.Sprintf("build: %v", err)}
	}
	var problems []string
	if err := rt.Run(session); err != nil {
		problems = append(problems, fmt.Sprintf("run: %v", err))
	}
	if got, want := rt.StateHash(), taskrtRefHash(); got != want {
		problems = append(problems, "state hash diverged from the fault-free serial reference")
	}
	st := rt.Stats()
	digest := fmt.Sprintf("hash=%s done=%d reexecs=%d latedrops=%d rehomes=%d abandons=%d\n%s",
		rt.StateHash(), rt.CompletedAt(), st.Reexecs, st.LateDrops, st.Rehomes, st.Abandons,
		sink.MetricsReport())
	return digest, problems
}

// DefaultTargets is the round-robin set a campaign runs when the caller
// does not pick one.
func DefaultTargets() []Target {
	return []Target{SchedTarget(), TaskrtTarget()}
}
