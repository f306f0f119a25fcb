package main

import (
	"fmt"
	"runtime"
	"time"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/ircce"
	"vscc/internal/mem"
	"vscc/internal/noc"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sched"
	"vscc/internal/sim"
	"vscc/internal/taskrt"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// The layer drivers time loops of calls into one layer's exported
// functions on a private kernel: host nanoseconds per operation,
// independent of any workload. They are the unit costs the traced
// pass's counts multiply.

// loop is one batch of a driver: it performs n operations inside timed
// and sets everything up outside it.
type loop struct {
	n       int
	elapsed time.Duration
	mallocs uint64
}

func (l *loop) timed(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	l.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	l.mallocs = after.Mallocs - before.Mallocs
}

// driver is one unit-cost measurement.
type driver struct {
	name string // per-layer metric name
	run  func(l *loop)
}

// driverResult is a driver's five batches.
type driverResult struct {
	nsPerOp     []float64
	allocsPerOp float64 // of the last batch; batches differ by a few allocations at most
}

const driverBatches = 5

// measure sizes a batch so that it takes at least batch, then times
// driverBatches of them.
func (d driver) measure(batch time.Duration) driverResult {
	l := &loop{n: 1}
	for {
		d.run(l)
		if l.elapsed >= batch || l.n >= 1<<30 {
			break
		}
		// Grow toward the target like testing.B: predicted count plus a
		// fifth, at most 100x per step.
		next := l.n * 100
		if l.elapsed > 0 {
			if p := int(1.2 * float64(l.n) * float64(batch) / float64(l.elapsed)); p < next {
				next = p
			}
		}
		if next <= l.n {
			next = l.n + 1
		}
		l.n = next
	}
	var res driverResult
	for i := 0; i < driverBatches; i++ {
		runtime.GC()
		d.run(l)
		res.nsPerOp = append(res.nsPerOp, float64(l.elapsed.Nanoseconds())/float64(l.n))
		res.allocsPerOp = float64(l.mallocs) / float64(l.n)
	}
	return res
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer driver: %v", err))
	}
}

// inProc runs body as the only process of a fresh kernel, timed.
func inProc(l *loop, body func(p *sim.Proc)) {
	k := sim.NewKernel()
	k.Spawn("driver", body)
	l.timed(func() { must(k.Run()) })
}

// onCore runs body on core 0 of a fresh chip, timed.
func onCore(l *loop, body func(c *scc.Ctx)) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	chip.Launch(0, "driver", body)
	l.timed(func() { must(k.Run()) })
}

// hostRig is two chips behind one communication task in host-ack mode.
type hostRig struct {
	k     *sim.Kernel
	chips []*scc.Chip
	task  *host.Task
}

func newHostRig() *hostRig {
	k := sim.NewKernel()
	chips := []*scc.Chip{scc.NewChip(k, 0, scc.DefaultParams()), scc.NewChip(k, 1, scc.DefaultParams())}
	fabric, err := pcie.New(2, pcie.DefaultParams(), pcie.AckHost)
	must(err)
	task, err := host.New(k, fabric, chips, host.DefaultParams())
	must(err)
	return &hostRig{k: k, chips: chips, task: task}
}

// hostRegionBytes is the registered span the host drivers sweep: half a
// tile's MPB share, as a message buffer is.
const hostRegionBytes = 4096

// readLines sweeps ReadLine from device 0 over a cached region of device
// 1. warm first lets the owner publish the region (CmdUpdate) so the
// sweep is served from the host copy and the SIF prefetch stream; cold
// leaves every line invalid, so each read is forwarded to the owner.
func readLines(l *loop, warm bool) {
	r := newHostRig()
	must(r.task.Register(&host.Region{Dev: 1, Tile: 0, Off: 0, Len: hostRegionBytes,
		Kind: host.KindData, Mode: host.ModeCached, Owner: 0}))
	if warm {
		r.chips[1].Launch(0, "owner", func(c *scc.Ctx) {
			bank := host.EncodeBank(host.BankCommand{Cmd: host.CmdUpdate, SrcOff: 0, Count: hostRegionBytes})
			c.MMIOWrite(1, 0, bank[:])
			c.FlushWCB()
		})
		must(r.k.Run())
	}
	r.k.Spawn("reader", func(p *sim.Proc) {
		var buf [mem.LineSize]byte
		for i := 0; i < l.n; i++ {
			off := i * mem.LineSize % hostRegionBytes
			r.task.ReadLine(p, 0, 0, 1, 0, off, buf[:])
		}
	})
	l.timed(func() { must(r.k.Run()) })
	st := r.task.Stats()
	if warm && st.ForwardedReads != 0 {
		panic(fmt.Sprintf("bench: warm ReadLine sweep forwarded %d reads", st.ForwardedReads))
	}
	if !warm && st.ForwardedReads != uint64(l.n) {
		panic(fmt.Sprintf("bench: cold ReadLine sweep forwarded %d of %d reads", st.ForwardedReads, l.n))
	}
}

// messages ping-pongs n messages of size bytes between ranks 0 and 1 of
// a session and times the run.
func messages(l *loop, session *rcce.Session, size int) {
	l.timed(func() {
		must(session.Run(func(r *rcce.Rank) {
			msg := make([]byte, size)
			buf := make([]byte, size)
			for i := 0; i < l.n; i++ {
				// Message i travels from rank i%2 to the other one.
				if r.ID() == i%2 {
					r.Send(1-r.ID(), msg)
				} else {
					r.Recv(1-r.ID(), buf)
				}
			}
		}))
	})
}

func onChipSession(proto rcce.Protocol) *rcce.Session {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	var opts []rcce.Option
	if proto != nil {
		opts = append(opts, rcce.WithProtocol(proto))
	}
	s, err := rcce.NewSession(k, []*scc.Chip{chip}, []rcce.Place{{Dev: 0, Core: 0}, {Dev: 0, Core: 1}}, opts...)
	must(err)
	return s
}

func interDeviceSession(scheme vscc.Scheme) *rcce.Session {
	sys, err := vscc.NewSystem(sim.NewKernel(), vscc.Config{Devices: 2, Scheme: scheme})
	must(err)
	s, err := sys.NewSessionAt([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	must(err)
	return s
}

// pdesRound circulates one token per kernel around four kernels; every
// window each kernel receives one message and posts the next, so the
// time per window is the cost of one PDES barrier round.
func pdesRound(l *loop, workers int) {
	const kernels = 4
	pd := sim.NewPDES(kernels, 100)
	hops := l.n // windows, since every token hops once per window
	var hop func(at, left int)
	hop = func(at, left int) {
		if left == 0 {
			return
		}
		next := (at + 1) % kernels
		pd.Post(at, pd.Kernel(at).Now()+pd.Lookahead(), next, func() { hop(next, left-1) })
	}
	for i := 0; i < kernels; i++ {
		i := i
		pd.Kernel(i).At(1, func() { hop(i, hops) })
	}
	l.timed(func() { must(pd.Run(workers)) })
}

// spanChunk bounds how many spans one sink holds in the span driver, so
// a long batch measures Span and not the growth of one huge slice.
const spanChunk = 1 << 16

func drivers() []driver {
	line := make([]byte, mem.LineSize)
	mpb := make([]byte, 8192)
	ds := []driver{
		// The five cmd/simbench shapes.
		{"sim.callback_ns", func(l *loop) {
			k := sim.NewKernel()
			n := 0
			var step func()
			step = func() {
				if n++; n < l.n {
					k.After(1, step)
				}
			}
			k.After(1, step)
			l.timed(func() { must(k.Run()) })
		}},
		{"sim.same_cycle_ns", func(l *loop) {
			k := sim.NewKernel()
			n := 0
			var step func()
			step = func() {
				if n++; n < l.n {
					k.After(0, step)
				}
			}
			k.After(1, step)
			l.timed(func() { must(k.Run()) })
		}},
		{"sim.deep_queue_ns", func(l *loop) {
			const depth = 1024
			k := sim.NewKernel()
			n := 0
			var refill func()
			refill = func() {
				if n++; n < l.n {
					k.After(sim.Cycles(1+n%depth), refill)
				}
			}
			for i := 0; i < depth && i < l.n; i++ {
				k.After(sim.Cycles(1+i), refill)
				n++
			}
			l.timed(func() { must(k.Run()) })
		}},
		{"sim.proc_delay_ns", func(l *loop) {
			inProc(l, func(p *sim.Proc) {
				for i := 0; i < l.n; i++ {
					p.Delay(1)
				}
			})
		}},
		{"sim.cond_handoff_ns", func(l *loop) {
			k := sim.NewKernel()
			conds := [2]*sim.Cond{sim.NewCond(k, "ping"), sim.NewCond(k, "pong")}
			turn := 0
			for id := 0; id < 2; id++ {
				id := id
				k.Spawn("p", func(p *sim.Proc) {
					for i := id; i < l.n; i += 2 {
						for turn != id {
							conds[id].Wait(p)
						}
						turn = 1 - id
						conds[1-id].Signal()
					}
				})
			}
			l.timed(func() { must(k.Run()) })
		}},
		// 64 processes that all wake every cycle: the goroutine handoff
		// between distinct processes that the one-process fast path of
		// proc_delay hides and a BT run is made of.
		{"sim.proc_switch_ns", func(l *loop) {
			const procs = 64
			k := sim.NewKernel()
			for id := 0; id < procs; id++ {
				id := id
				k.Spawn("p", func(p *sim.Proc) {
					for i := id; i < l.n; i += procs {
						p.Delay(1)
					}
				})
			}
			l.timed(func() { must(k.Run()) })
		}},
		{"sim.pdes_round_ns.w1", func(l *loop) { pdesRound(l, 1) }},
		// The one driver that leaves the benchmark's single P: two workers
		// only cross a real barrier on two.
		{"sim.pdes_round_ns.w2", func(l *loop) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			pdesRound(l, 2)
		}},

		{"mem.wcb_line_ns", func(l *loop) {
			var w mem.WCB
			l.timed(func() {
				for i := 0; i < l.n; i++ {
					w.Write(uint64(i), 0, line)
					w.Flush()
				}
			})
		}},
		{"scc.write_mpb_line_ns", func(l *loop) {
			onCore(l, func(c *scc.Ctx) {
				for done := 0; done < l.n; done += len(mpb) / mem.LineSize {
					c.WriteMPB(0, 0, 0, mpb)
					c.FlushWCB()
				}
			})
		}},
		{"scc.read_mpb_line_ns", func(l *loop) {
			onCore(l, func(c *scc.Ctx) {
				for done := 0; done < l.n; done += len(mpb) / mem.LineSize {
					c.InvalidateMPB()
					c.ReadMPB(0, 0, 0, mpb)
				}
			})
		}},
		// Cores 0 and 2 (tiles 0 and 1) hand one flag value back and
		// forth; one operation is one WaitFlag satisfied by the peer.
		{"scc.flag_wait_ns", func(l *loop) {
			k := sim.NewKernel()
			chip := scc.NewChip(k, 0, scc.DefaultParams())
			for side := 0; side < 2; side++ {
				side := side
				chip.Launch(2*side, "flag", func(c *scc.Ctx) {
					for i := 0; i < l.n; i++ {
						v := byte(i%200 + 1)
						if i%2 == side {
							c.WriteMPB(0, 1-side, 0, []byte{v})
							c.FlushWCB()
						} else {
							c.WaitFlag(side, 0, func(b byte) bool { return b == v })
						}
					}
				})
			}
			l.timed(func() { must(k.Run()) })
		}},

		{"noc.link_transfer_ns", func(l *loop) {
			link := noc.NewLink("driver", 10, 8)
			inProc(l, func(p *sim.Proc) {
				for i := 0; i < l.n; i++ {
					link.Transfer(p, mem.LineSize)
				}
			})
		}},
		{"noc.mesh_latency_ns", func(l *loop) {
			mesh := noc.New(scc.MeshWidth, scc.MeshHeight, noc.DefaultParams())
			a, b := scc.TileCoord(0), scc.TileCoord(scc.NumTiles-1)
			var sum sim.Cycles
			l.timed(func() {
				for i := 0; i < l.n; i++ {
					sum += mesh.TransferLatency(a, b, mem.LineSize+(i&1))
				}
			})
			sinkCycles = sum
		}},

		{"pcie.post_ns", func(l *loop) {
			fabric, err := pcie.New(2, pcie.DefaultParams(), pcie.AckHost)
			must(err)
			inProc(l, func(p *sim.Proc) {
				for i := 0; i < l.n; i++ {
					fabric.PostD2H(p, 0, 64, func() {})
					fabric.PostH2D(p, 1, 64, func() {})
				}
			})
		}},
		{"pcie.header_codec_ns", func(l *loop) {
			l.timed(func() {
				for i := 0; i < l.n; i++ {
					b := pcie.EncodeHeader(pcie.Header{Seq: uint64(i), Length: 64, Kind: 1})
					if _, err := pcie.DecodeHeader(b[:]); err != nil {
						panic(err)
					}
				}
			})
		}},

		{"host.read_line_hit_ns", func(l *loop) { readLines(l, true) }},
		{"host.read_line_miss_ns", func(l *loop) { readLines(l, false) }},
		{"host.write_line_ns", func(l *loop) {
			r := newHostRig()
			must(r.task.Register(&host.Region{Dev: 1, Tile: 0, Off: 0, Len: hostRegionBytes,
				Kind: host.KindData, Mode: host.ModeWriteCombining, Owner: 0}))
			r.k.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < l.n; i++ {
					r.task.WriteLine(p, 0, 0, 1, 0, i*mem.LineSize%hostRegionBytes, line, 0xFFFFFFFF)
				}
			})
			l.timed(func() { must(r.k.Run()) })
		}},
		// One fused register-bank write that starts a one-line vDMA copy
		// from core 0 of device 0 to device 1.
		{"host.vdma_program_ns", func(l *loop) {
			r := newHostRig()
			bank := host.EncodeBank(host.BankCommand{Cmd: host.CmdCopy, DstDev: 1, DstTile: 0, DstOff: 0,
				SrcOff: 0, Count: mem.LineSize})
			r.k.Spawn("programmer", func(p *sim.Proc) {
				for i := 0; i < l.n; i++ {
					r.task.MMIOWriteLine(p, 0, 0, 0, 0, bank[:], 0xFFFFFFFF)
				}
			})
			l.timed(func() { must(r.k.Run()) })
			if got := r.task.Stats().VDMACopies; got != uint64(l.n) {
				panic(fmt.Sprintf("bench: %d of %d vDMA programmings started a copy", got, l.n))
			}
		}},

		{"rcce.msg_ns.1k", func(l *loop) { messages(l, onChipSession(nil), 1024) }},
		{"rcce.msg_ns.64k", func(l *loop) { messages(l, onChipSession(nil), 64*1024) }},
		{"ircce.msg_ns.64k", func(l *loop) { messages(l, onChipSession(&ircce.PipelinedProtocol{}), 64*1024) }},
	}
	for _, s := range allSchemes() {
		s := s
		ds = append(ds, driver{"vscc.msg_ns." + s.Key(), func(l *loop) { messages(l, interDeviceSession(s), 4096) }})
	}
	return append(ds,
		// n two-rank ping-pong jobs, all submitted at cycle 0, from
		// submission to the last completion.
		driver{"sched.job_ns", func(l *loop) {
			k := sim.NewKernel()
			sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
			must(err)
			s := sched.New(sys, nil, sched.Options{})
			must(s.AddTenant(sched.TenantSpec{ID: 1}))
			jobs := make([]sched.JobSpec, l.n)
			for i := range jobs {
				jobs[i] = sched.JobSpec{Tenant: 1, Name: fmt.Sprintf("pp-%d", i), Kind: sched.KindPingPong,
					Ranks: 2, Scheme: vscc.SchemeVDMA, Size: 1024, Reps: 1}
			}
			l.timed(func() {
				must(s.Submit(jobs))
				must(k.Run())
			})
			for _, r := range s.Results() {
				if r.Status != sched.StatusOK {
					panic(fmt.Sprintf("bench: job %s ended %s", r.Spec.Name, r.Status))
				}
			}
		}},
		driver{"taskrt.task_ns", func(l *loop) {
			rt := taskrt.New(taskrt.Config{})
			rg, err := rt.Region("r", 8, 0)
			must(err)
			l.timed(func() {
				for i := 0; i < l.n; i++ {
					_, err := rt.AddTask("t", 0, []taskrt.Access{taskrt.InOut(rg)}, func(*taskrt.TaskCtx) {})
					must(err)
				}
				must(rt.RunSerial(1))
			})
		}},
		driver{"fault.parse_spec_ns", func(l *loop) {
			l.timed(func() {
				for i := 0; i < l.n; i++ {
					_, err := fault.ParseSpec("seed=7,drop=20,stall=1000000:200000,devcrash=400000:1:200000,budget=50000,waitretries=3")
					must(err)
				}
			})
		}},
		driver{"trace.span_ns", func(l *loop) { recordSpans(l, true) }},
		driver{"trace.span_off_ns", func(l *loop) { recordSpans(l, false) }},
	)
}

// sinkCycles keeps the mesh-latency loop's result alive.
var sinkCycles sim.Cycles

// recordSpans records n spans on an enabled sink, or on the nil sink every
// untraced run uses.
func recordSpans(l *loop, enabled bool) {
	k := sim.NewKernel()
	l.timed(func() {
		for done := 0; done < l.n; done += spanChunk {
			var s *trace.Sink
			if enabled {
				s = trace.NewSink(k)
			}
			tr := s.Track("bench", "driver")
			for i := 0; i < spanChunk && done+i < l.n; i++ {
				s.Span(tr, "op", sim.Cycles(i), sim.Cycles(i+1))
			}
		}
	})
}
