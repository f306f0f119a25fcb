package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"

	"vscc/internal/chaos"
	"vscc/internal/harness"
	"vscc/internal/ircce"
	"vscc/internal/npb"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/sched"
	"vscc/internal/sim"
	"vscc/internal/taskrt"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// scale sizes the workloads. fullScale is the only scale the benchmark
// reports numbers for; bench_test.go shrinks every field so the whole
// program runs in seconds.
type scale struct {
	sizes       []int // ping-pong message sizes
	reps        int   // ping-pong round trips per point
	class       npb.Class
	onchipRanks int
	xdevRanks   int
	xdevDevices int
	jobsFile    string // workload file of tenants_mixed50, relative to the working directory
	schedules   int    // back-to-back schedules per tenants_mixed50 pass
	taskRanks   int
	taskSize    int
	taskIters   int
	chaosPoints int
}

// fullScale is the paper's figure configurations at the largest size
// that keeps one pass of every workload between 2 s and 6 s on two
// cores (README "Reference scale").
func fullScale() scale {
	return scale{
		sizes:       harness.Sizes6(),
		reps:        3,
		class:       npb.ClassB,
		onchipRanks: 36,
		xdevRanks:   100,
		xdevDevices: 5,
		jobsFile:    "workloads/mixed50.jobs",
		schedules:   12,
		taskRanks:   16,
		taskSize:    12,
		taskIters:   64,
		chaosPoints: 64,
	}
}

// workload is one named set of inputs. Names are stable: later issues
// cite them. why is the one-line reason BENCHMARK.json records.
type workload struct {
	name string
	why  string
	// input builds whatever the passes share (parsed files, generated
	// schedules) from the seed; it runs once, inside setup_s.
	input func(sc scale, seed uint64) (any, error)
	// pass runs the workload once and checks its outputs.
	pass func(e *env) error
	// traced, when set, is this workload's own part of the traced run: it
	// checks or extends the per-layer metrics m of the traced pass st.
	traced func(sc scale, st *passStats, m map[string]float64) error
}

// workloads lists the seven workloads in report order.
func workloads() []workload {
	return []workload{
		{name: "pingpong_sweep",
			why:  "two ranks, closed loop, 8 protocol variants x 14 sizes: the per-message path (rcce/ircce/vscc, scc+mem, pcie, host) does the work, process handoff is smallest; the only workload with a paper reference",
			pass: pingpongPass},
		{name: "bt_onchip",
			why:  "NPB BT class B on 36 ranks of one device: sim process switching plus scc/mem/noc/rcce; pcie, host and vscc do nothing, so a host/PCIe/scheme optimisation must not move it",
			pass: func(e *env) error { return btPass(e, e.sc.onchipRanks, 1, 0) },
			traced: func(_ scale, _ *passStats, m map[string]float64) error {
				if n := m["pcie.sif_packets"]; n != 0 {
					return fmt.Errorf("bt_onchip: %v SIF packets on a single device, want none", n)
				}
				return nil
			}},
		{name: "bt_xdev",
			why:  "BT class B on 100 ranks over 5 devices with vDMA, classic engine: many ranks contending for five PCIe links and one host task, where host queueing and pcie occupancy matter under load",
			pass: func(e *env) error { return btPass(e, e.sc.xdevRanks, e.sc.xdevDevices, 0) }},
		{name: "bt_xdev_pdes",
			why:    "the bt_xdev point on the PDES engine with 2 workers: a gain for one engine that costs the other shows here; carries engine_gap_pct",
			pass:   func(e *env) error { return btPass(e, e.sc.xdevRanks, e.sc.xdevDevices, pdesWorkers) },
			traced: engineGap},
		{name: "tenants_mixed50",
			why:   "workloads/mixed50.jobs (54 jobs, 6 tenants, 5 devices) scheduled 12 times: sched admission/packing, host QoS, pcie token buckets and many short sessions; session set-up, not steady-state transfer",
			input: tenantsInput, pass: tenantsPass},
		{name: "taskrt_mix",
			why:  "cholesky, stencil and kv task graphs on five schemes: taskrt dependence tracking, stealing, doorbells and vscc.ClassifyMove with small messages and many flags",
			pass: taskrtPass},
		{name: "chaos_campaign",
			why:  "64 seeded fault schedules through the sched and taskrt recovery targets: fault injector, pcie replay, vscc rejoin, devretry and re-execution, so a clean-path gain that slows recovery shows here",
			pass: chaosPass},
	}
}

// pdesWorkers is the PDES worker count of bt_xdev_pdes.
const pdesWorkers = 2

// digest accumulates a workload's simulated results into sim_digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) addf(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// bits renders a float exactly, so the digest moves on any change of a
// simulated result, however small.
func bits(f float64) uint64 { return math.Float64bits(f) }

// pingpongVariant is one curve of Fig. 6a/6b.
type pingpongVariant struct {
	name string
	run  func(sizes []int, reps int) ([]harness.PingPongPoint, error)
}

func pingpongVariants() []pingpongVariant {
	vs := []pingpongVariant{
		{"rcce", func(sizes []int, reps int) ([]harness.PingPongPoint, error) {
			return harness.OnChipPingPong(nil, 0, 1, sizes, reps)
		}},
		{"ircce", func(sizes []int, reps int) ([]harness.PingPongPoint, error) {
			return harness.OnChipPingPong(func() rcce.Protocol { return &ircce.PipelinedProtocol{} }, 0, 1, sizes, reps)
		}},
	}
	for _, s := range allSchemes() {
		s := s
		vs = append(vs, pingpongVariant{s.Key(), func(sizes []int, reps int) ([]harness.PingPongPoint, error) {
			return harness.InterDevicePingPong(s, sizes, reps)
		}})
	}
	return vs
}

func allSchemes() []vscc.Scheme {
	return []vscc.Scheme{vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet,
		vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel}
}

// The paper's headline numbers paper_err_pct is measured against
// (§4.1, §1/§5, §4.1, §5), as harness.MeasureClaims reports them.
const (
	paperOnChipPeakMBps = 150.0
	paperRecovered      = 0.24
	paperCachedOfLimit  = 0.7172
	paperLatencyFactor  = 120.0
)

// pingpongPass is Fig. 6a + 6b: every variant over every size.
func pingpongPass(e *env) error {
	peak := map[string]float64{}
	curves := map[string][]harness.PingPongPoint{}
	for _, v := range pingpongVariants() {
		var pts []harness.PingPongPoint
		err := e.call("harness.pingpong", v.name, func() (err error) {
			pts, err = v.run(e.sc.sizes, e.sc.reps)
			return err
		})
		e.attempted += len(e.sc.sizes)
		if err != nil {
			return err
		}
		e.digest.addf("%s\n", v.name)
		for _, p := range pts {
			e.digest.addf("%d %d %x\n", p.Size, p.Cycles, bits(p.MBps))
		}
		peak[v.name] = harness.PeakMBps(pts)
		curves[v.name] = pts
	}
	e.sim["rcce.sim_mbps_peak"] = peak["rcce"]
	e.sim["ircce.sim_mbps_peak"] = peak["ircce"]
	for _, s := range allSchemes() {
		e.sim["vscc.sim_mbps_peak."+s.Key()] = peak[s.Key()]
	}

	// §4.1: the non-pipelined cached-get scheme dips once a message no
	// longer fits the MPB, the pipelined vDMA scheme does not. Only a
	// size list that straddles the chunk size can show it.
	if drop, straddles := mpbDrop(curves["cached-get"]); straddles && !drop {
		return fmt.Errorf("pingpong_sweep: cached-get shows no throughput drop past %d B", rcce.ChunkBytes)
	}
	if drop, _ := mpbDrop(curves["vdma"]); drop {
		return fmt.Errorf("pingpong_sweep: vdma shows a throughput drop past %d B", rcce.ChunkBytes)
	}

	fabric, err := pcie.New(2, pcie.DefaultParams(), pcie.AckHost)
	if err != nil {
		return err
	}
	best := math.Max(peak["vdma"], peak["remote-put"])
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / want }
	e.sim["paper_err_pct"] = 100 * (relErr(peak["ircce"], paperOnChipPeakMBps) +
		relErr(best/peak["rcce"], paperRecovered) +
		relErr(peak["cached-get"]/peak["hw-accel"], paperCachedOfLimit) +
		relErr(float64(fabric.RoundTrip())/100, paperLatencyFactor)) / 4
	return nil
}

// mpbDrop reports whether the first size past the MPB chunk performs
// worse than the last size that fit (harness.Claims.CachedHasDrop), and
// whether the curve has such a pair of sizes at all.
func mpbDrop(pts []harness.PingPongPoint) (drop, straddles bool) {
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Size <= rcce.ChunkBytes && pts[i].Size > rcce.ChunkBytes {
			return pts[i].MBps < pts[i-1].MBps, true
		}
	}
	return false, false
}

// btPass runs one NPB BT point, one iteration in timing mode; workers >
// 0 selects the PDES engine.
func btPass(e *env, ranks, devices, workers int) error {
	defer harness.SetPDES(harness.SetPDES(workers))
	cfg := harness.BTSweepConfig{Class: e.sc.class, Iterations: 1, Scheme: vscc.SchemeVDMA, Devices: devices}
	var pt harness.BTPoint
	err := e.call("harness.BTRun", "bt", func() (err error) {
		if workers > 0 && e.spans != nil {
			pt, err = btPDESTraced(e, cfg, ranks, workers)
		} else {
			pt, err = harness.BTRun(cfg, ranks)
		}
		return err
	})
	e.attempted++
	if err != nil {
		return err
	}
	e.digest.addf("bt %d %d %x\n", pt.Ranks, pt.Cycles, bits(pt.GFlops))
	e.sim["npb.sim_gflops"] = pt.GFlops
	e.btCycles = uint64(pt.Cycles)
	return nil
}

// engineGap runs the bt_xdev_pdes point once more on the classic
// engine, the reference model, and reports how far the PDES engine's
// cycle count is from it. Only that workload's traced run pays for it.
func engineGap(sc scale, st *passStats, m map[string]float64) error {
	classic := &env{sc: sc, probe: &probe{}, digest: newDigest(), sim: map[string]float64{}}
	if err := btPass(classic, sc.xdevRanks, sc.xdevDevices, 0); err != nil {
		return err
	}
	m["engine_gap_pct"] = 100 * math.Abs(float64(st.btCycles)-float64(classic.btCycles)) / float64(classic.btCycles)
	return nil
}

// btPDESTraced is harness.BTRun's PDES path put together from the same
// exported pieces. The harness keeps the PDESSystem it builds — and with
// it sim.PDES.Windows — to itself, so the traced pass, which reports
// windows, builds its own; the digest check holds the two paths equal.
func btPDESTraced(e *env, cfg harness.BTSweepConfig, ranks, workers int) (harness.BTPoint, error) {
	sys, err := vscc.NewPDESSystem(vscc.Config{Devices: cfg.Devices, Scheme: cfg.Scheme}, workers)
	if err != nil {
		return harness.BTPoint{}, err
	}
	sinks := make([]*trace.Sink, sys.PDES.N())
	for i := range sinks {
		sinks[i] = e.probe.observe(fmt.Sprintf("bt/pdes/k%d", i), sys.PDES.Kernel(i))
	}
	sys.Instrument(sinks)
	session, err := sys.NewSession(ranks)
	if err != nil {
		return harness.BTPoint{}, err
	}
	d, err := npb.NewDecomp(cfg.Class.N, ranks)
	if err != nil {
		return harness.BTPoint{}, err
	}
	res, err := npb.RunOn(session, d, npb.Config{Class: cfg.Class, Iterations: cfg.Iterations, Timing: true})
	if err != nil {
		return harness.BTPoint{}, err
	}
	e.sim["sim.pdes_windows"] = float64(sys.PDES.Windows())
	return harness.BTPoint{Ranks: ranks, GFlops: res.GFlops, Cycles: res.Cycles}, nil
}

func tenantsInput(sc scale, _ uint64) (any, error) {
	blob, err := os.ReadFile(sc.jobsFile)
	if err != nil {
		return nil, err
	}
	w, err := sched.ParseWorkload(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.jobsFile, err)
	}
	return w, nil
}

// tenantsPass runs the workload file through the scheduler the way
// cmd/vsccd does, sc.schedules times on fresh systems.
func tenantsPass(e *env) error {
	w := e.input.(*sched.Workload)
	for i := 0; i < e.sc.schedules; i++ {
		err := e.call("sched.schedule", fmt.Sprintf("%02d", i), func() error {
			k := sim.NewKernel()
			sys, err := vscc.NewSystem(k, vscc.Config{Devices: 5, Scheme: vscc.SchemeVDMA})
			if err != nil {
				return err
			}
			sink := e.probe.observe(fmt.Sprintf("tenants/schedule=%02d", i), k)
			sys.Instrument(sink)
			s := sched.New(sys, sink, sched.Options{})
			for _, ts := range w.Tenants {
				if err := s.AddTenant(ts); err != nil {
					return err
				}
			}
			if err := s.Submit(w.Jobs); err != nil {
				return err
			}
			if err := k.Run(); err != nil {
				return fmt.Errorf("schedule %d: %w", i, err)
			}
			for _, r := range s.Results() {
				e.attempted++
				if r.Status != sched.StatusOK {
					e.failed++
				}
				e.digest.addf("%s %s %d %d %d %d %v\n", r.Spec.Name, r.Status, r.Submit, r.Admit, r.Done, r.Retries, r.Devices())
			}
			e.digest.addf("end %d\n", k.Now())
			for d := 0; d < sys.Fabric.NumDevices(); d++ {
				up, down := sys.Fabric.Link(d).D2H.Stats(), sys.Fabric.Link(d).H2D.Stats()
				e.sim["pcie.busy_cycles"] += float64(up.BusyCycles + down.BusyCycles)
				e.sim["pcie.waited_cycles"] += float64(up.WaitedCycles + down.WaitedCycles)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil // runPass fails the pass if any job did not end ok
}

// taskrtSchemes are the five schemes a task graph's argument movement
// runs on (routing has no taskrt move class).
func taskrtSchemes() []vscc.Scheme {
	return []vscc.Scheme{vscc.SchemeHostRouted, vscc.SchemeHWAccel, vscc.SchemeCachedGet,
		vscc.SchemeRemotePut, vscc.SchemeVDMA}
}

// taskrtPass runs every task-runtime workload on every scheme and
// checks that the region state a workload ends in does not depend on
// the scheme that moved its arguments.
func taskrtPass(e *env) error {
	for _, wl := range taskrt.Workloads() {
		hashes := map[string]bool{}
		err := e.call("harness.TaskrtSweep", wl, func() error {
			for _, s := range taskrtSchemes() {
				pts, err := harness.TaskrtSweep(harness.TaskrtConfig{Workload: wl, Scheme: s, Devices: 2,
					Ranks: e.sc.taskRanks, Size: e.sc.taskSize, Iters: e.sc.taskIters, Replicas: 1})
				e.attempted++
				if err != nil {
					return err
				}
				for _, p := range pts {
					e.digest.addf("%s\n", p)
					hashes[p.Hash] = true
					// The harness gives these sessions no sink, so the
					// runtime's own statistics stand in for the counters.
					e.sim["taskrt.tasks"] += float64(p.TaskCount)
					e.sim["taskrt.steals"] += float64(p.Steals)
					e.sim["taskrt.move_bytes"] += float64(p.MovedBytes)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(hashes) != 1 {
			e.failed++
			return fmt.Errorf("taskrt_mix: %s ends in %d distinct region states across schemes", wl, len(hashes))
		}
	}
	return nil
}

// chaosPass walks one seeded fault campaign. The targets build private
// kernels with their own sinks, so what the other workloads read from
// kernels and collectors is read here from the metrics report each
// target returns as its digest.
func chaosPass(e *env) error {
	targets := chaos.DefaultTargets()
	for i := range targets {
		t := targets[i]
		targets[i].Run = func(spec string) (string, []string) {
			var out string
			var problems []string
			_ = e.call("chaos.Target.Run", t.Name, func() error {
				out, problems = t.Run(spec)
				return nil
			})
			e.digest.addf("%s %s\n%s\n%v\n", t.Name, spec, out, problems)
			if err := e.probe.addReport(out, true); err != nil && len(problems) == 0 {
				problems = []string{err.Error()}
			}
			return out, problems
		}
	}
	c := chaos.Campaign{Seed: e.seed, N: e.sc.chaosPoints, Targets: targets}
	points, v := c.Run()
	e.attempted += e.sc.chaosPoints
	e.sim["chaos.points"] = float64(points)
	if v != nil {
		e.failed++
		return fmt.Errorf("chaos_campaign: %s", strings.TrimSpace(v.Error()))
	}
	if points != e.sc.chaosPoints {
		return fmt.Errorf("chaos_campaign: walked %d points, want %d", points, e.sc.chaosPoints)
	}
	return nil
}
