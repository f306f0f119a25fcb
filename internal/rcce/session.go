// Package rcce is a Go port of RCCE, Intel Labs' light-weight
// communication environment for the SCC research processor, running on
// the simulated chip of package scc.
//
// Like the reference implementation it is layered: a one-sided "gory"
// interface (Put, Get, flags, MPB allocation) abstracts the hardware, and
// a two-sided "non-gory" interface (Send, Recv) implements blocking
// message passing over it with the default local-put/remote-get scheme.
// Synchronization is flag-based; a core spins only on flags in its own
// MPB (paper §3.1). Protocols are pluggable so that iRCCE (package
// ircce) and the vSCC inter-device schemes (package vscc) can replace the
// wire protocol per rank pair.
package rcce

import (
	"errors"
	"fmt"
	"sort"

	"vscc/internal/fault"
	"vscc/internal/mem"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// MaxRanks bounds a session; the vSCC grid of five devices has 240 cores.
const MaxRanks = 256

// ErrDeviceLost is the deterministic error surfaced when a blocking
// operation's peer device crashes or loses its link and transparent
// retry is not enabled (fault spec devretry=0). Callers match it with
// errors.Is on the error returned by Run. The sentinel itself lives in
// package fault so layers below rcce (the host fabric's forwarded-read
// path) can raise the same instance.
var ErrDeviceLost = fault.ErrDeviceLost

// ErrAborted is the deterministic error delivered to ranks killed by
// Session.Abort: a supervisor (the job scheduler's devretry path) tore
// the session down instead of waiting for stranded ranks to return.
// Callers match it with errors.Is.
var ErrAborted = errors.New("rcce: rank aborted")

// Flag area layout: each rank's 8 KB MPB half reserves the top
// 2*MaxRanks bytes for the sent/ready flag arrays, indexed by peer rank.
const (
	// flagBytes reserves the sent, ready, barrier, grant and
	// DMA-completion flag arrays plus one scratch line at the top of
	// each rank's MPB half.
	flagBytes = 5*MaxRanks + 32
	// PayloadBytes is the per-rank MPB space available for message
	// payload and user allocations — the "MPB" of the paper, 8 KB minus
	// flags. Messages larger than the communication buffer are split
	// (the 8 kB throughput drop of Fig. 6b).
	PayloadBytes = mem.CoreLMBSize - flagBytes
)

// Place locates a rank on the grid: device index and core id.
type Place struct {
	Dev  int
	Core int
}

// Session is one RCCE program run: a set of ranks mapped onto cores of
// one or more devices.
type Session struct {
	Kernel *sim.Kernel
	chips  []*scc.Chip
	places []Place

	protocol Protocol
	timeline *sim.Timeline
	sink     *trace.Sink

	// devSinks, when set, routes each rank's observability to its own
	// device's sink (indexed by device). Under PDES every device is a
	// separate kernel, and trace.Sink is deliberately not
	// concurrency-safe — per-device sinks keep all recording
	// kernel-local. Devices beyond the slice (or nil entries) fall back
	// to the session sink.
	devSinks []*trace.Sink

	// runner, when set, replaces Kernel.Run as the engine that drives
	// the session (the PDES barrier-window engine plugs in here). The
	// NPB harness path — session.Run(program) — stays identical either
	// way.
	runner func() error

	// onTraffic, if set, observes every completed point-to-point message
	// (used to build the paper's Fig. 8 traffic matrix). The callback
	// runs on the reporting rank's kernel: under PDES that means
	// concurrently from several kernels, so PDES sessions must not
	// attach one.
	onTraffic func(src, dest, bytes int)

	// barrier state: a generation counter per rank pair of flag slots.
	barrierGen []byte

	// errs holds one slot per rank (single-writer per rank, so rank
	// panics on different kernels never race); Run reports the
	// lowest-rank error.
	errs []error

	// procs holds each launched rank's simulated process (nil before
	// Launch), so a supervisor can Abort stranded ranks.
	procs []*sim.Proc
}

// Option configures a session.
type Option func(*Session)

// WithProtocol replaces the default blocking local-put/remote-get
// protocol.
func WithProtocol(p Protocol) Option { return func(s *Session) { s.protocol = p } }

// WithTimeline records protocol phases for Fig. 2 style diagrams.
func WithTimeline(t *sim.Timeline) Option { return func(s *Session) { s.timeline = t } }

// WithTrafficObserver registers a callback for every delivered message.
func WithTrafficObserver(fn func(src, dest, bytes int)) Option {
	return func(s *Session) { s.onTraffic = fn }
}

// WithSink attaches an observability sink: the session then records the
// message-size histogram and the data-versus-flag traffic split, and
// protocol extensions (ircce, vscc) pick the sink up through Sink().
func WithSink(sink *trace.Sink) Option { return func(s *Session) { s.sink = sink } }

// WithDeviceSinks attaches one sink per device so every rank records
// into a sink owned by its own kernel (required under PDES, where a
// shared sink would race).
func WithDeviceSinks(sinks []*trace.Sink) Option {
	return func(s *Session) { s.devSinks = sinks }
}

// WithRunner replaces the engine that drives Run. The default is the
// session kernel's own Run loop; the vSCC PDES mode substitutes the
// barrier-window engine so NPB programs run unchanged on either.
func WithRunner(run func() error) Option { return func(s *Session) { s.runner = run } }

// NewSession creates a session over explicit placements. chips must be
// indexed by device number and cover every Place.Dev.
func NewSession(k *sim.Kernel, chips []*scc.Chip, places []Place, opts ...Option) (*Session, error) {
	if len(places) == 0 {
		return nil, errors.New("rcce: session with zero ranks")
	}
	if len(places) > MaxRanks {
		return nil, fmt.Errorf("rcce: %d ranks exceeds MaxRanks=%d", len(places), MaxRanks)
	}
	seen := map[Place]bool{}
	for i, pl := range places {
		if pl.Dev < 0 || pl.Dev >= len(chips) || chips[pl.Dev] == nil {
			return nil, fmt.Errorf("rcce: rank %d placed on unknown device %d", i, pl.Dev)
		}
		if pl.Core < 0 || pl.Core >= scc.NumCores {
			return nil, fmt.Errorf("rcce: rank %d placed on invalid core %d", i, pl.Core)
		}
		if !chips[pl.Dev].Alive(pl.Core) {
			return nil, fmt.Errorf("rcce: rank %d placed on failed core %d of device %d", i, pl.Core, pl.Dev)
		}
		if seen[pl] {
			return nil, fmt.Errorf("rcce: duplicate placement %+v", pl)
		}
		seen[pl] = true
	}
	s := &Session{
		Kernel:     k,
		chips:      chips,
		places:     places,
		barrierGen: make([]byte, len(places)),
		errs:       make([]error, len(places)),
		procs:      make([]*sim.Proc, len(places)),
	}
	for _, o := range opts {
		o(s)
	}
	if s.protocol == nil {
		s.protocol = DefaultProtocol{}
	}
	return s, nil
}

// LinearPlaces builds the default vSCC rank mapping (paper §3): all cores
// of device 0 in a linear way, continuing on device 1 starting with rank
// 48, and so on. Failed cores are skipped, reproducing the extended RCCE
// startup script that writes a configuration file of available cores
// before the application run (paper §4).
func LinearPlaces(chips []*scc.Chip, n int) ([]Place, error) {
	var places []Place
	for dev, chip := range chips {
		alive := chip.AliveCores()
		sort.Ints(alive)
		for _, core := range alive {
			places = append(places, Place{Dev: dev, Core: core})
		}
	}
	if n > len(places) {
		return nil, fmt.Errorf("rcce: requested %d ranks, only %d cores available", n, len(places))
	}
	return places[:n], nil
}

// descendingPlaces mirrors the RCCE default on a single chip, where
// ranks map to physical cores sorted in descending id order (paper §3).
func descendingPlaces(chip *scc.Chip, n int) ([]Place, error) {
	alive := chip.AliveCores()
	sort.Sort(sort.Reverse(sort.IntSlice(alive)))
	if n > len(alive) {
		return nil, fmt.Errorf("rcce: requested %d ranks, only %d cores available", n, len(alive))
	}
	places := make([]Place, n)
	for i := 0; i < n; i++ {
		places[i] = Place{Dev: chip.Index, Core: alive[i]}
	}
	return places, nil
}

// NumRanks returns the session size.
func (s *Session) NumRanks() int { return len(s.places) }

// PlaceOf returns a rank's placement.
func (s *Session) PlaceOf(rank int) Place { return s.places[rank] }

// Chip returns the device a rank runs on.
func (s *Session) Chip(rank int) *scc.Chip { return s.chips[s.places[rank].Dev] }

// Protocol returns the active wire protocol.
func (s *Session) Protocol() Protocol { return s.protocol }

// Timeline returns the session's timeline (may be nil).
func (s *Session) Timeline() *sim.Timeline { return s.timeline }

// SameDevice reports whether two ranks share a device.
func (s *Session) SameDevice(a, b int) bool { return s.places[a].Dev == s.places[b].Dev }

// Launch starts program as rank's process. Most callers use Run instead.
func (s *Session) Launch(rank int, program func(*Rank)) {
	pl := s.places[rank]
	chip := s.chips[pl.Dev]
	name := fmt.Sprintf("rank%03d(d%d.c%02d)", rank, pl.Dev, pl.Core)
	s.procs[rank] = chip.Launch(pl.Core, name, func(ctx *scc.Ctx) {
		r := &Rank{s: s, id: rank, ctx: ctx}
		r.initMPB()
		defer func() {
			if rec := recover(); rec != nil {
				if err, ok := rec.(error); ok {
					// Preserve error identity (errors.Is on
					// ErrDeviceLost and friends) through the panic.
					s.errs[rank] = fmt.Errorf("rcce: rank %d panicked: %w", rank, err)
				} else {
					s.errs[rank] = fmt.Errorf("rcce: rank %d panicked: %v", rank, rec)
				}
			}
		}()
		program(r)
	})
}

// Run launches program on every rank (SPMD) and drives the simulation to
// completion. It returns the first rank error or a kernel error
// (deadlock, panic).
func (s *Session) Run(program func(*Rank)) error {
	for rank := range s.places {
		s.Launch(rank, program)
	}
	drive := s.runner
	if drive == nil {
		drive = s.Kernel.Run
	}
	driveErr := drive()
	// Rank errors outrank engine errors: a rank that panicked out of a
	// handshake routinely strands its peer, and the resulting deadlock
	// report would mask the root cause.
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return driveErr
}

// Abort kills every launched rank process that has not finished, with an
// error wrapping both cause and ErrAborted. Each killed rank unwinds at
// its next resume point (Proc.Kill), so ranks parked forever on a lost
// peer's flags terminate deterministically at the abort cycle; Launch's
// recovery records the error as the rank's terminal status. Finished
// ranks are untouched. Must be called from kernel context.
func (s *Session) Abort(cause error) {
	err := fmt.Errorf("%w: %v", ErrAborted, cause)
	for _, p := range s.procs {
		if p != nil {
			p.Kill(err)
		}
	}
}

// Err returns the lowest-rank error recorded by ranks launched with
// Launch, once the kernel has been driven — the completion status a
// scheduler reads for a session it launched rank by rank instead of
// through Run.
func (s *Session) Err() error {
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sinkFor returns the sink a given device's ranks record into: the
// per-device sink when one is attached, the session sink otherwise.
func (s *Session) sinkFor(dev int) *trace.Sink {
	if dev >= 0 && dev < len(s.devSinks) && s.devSinks[dev] != nil {
		return s.devSinks[dev]
	}
	return s.sink
}

// reportTraffic notifies the traffic observer of one delivered message,
// attributing the counters to the sending rank's device sink.
func (s *Session) reportTraffic(src, dest, bytes int) {
	if s.onTraffic != nil {
		s.onTraffic(src, dest, bytes)
	}
	sink := s.sinkFor(s.places[src].Dev)
	sink.Add("rcce.msgs", 1)
	sink.Add("rcce.data_bytes", int64(bytes))
	sink.Observe("rcce.msg_size", float64(bytes))
}

// reportFlagWrite attributes one flag-byte store by a rank on dev to
// the sink — the "flag traffic" side of the data-vs-flag split.
func (s *Session) reportFlagWrite(dev int) {
	sink := s.sinkFor(dev)
	sink.Add("rcce.flag_writes", 1)
	sink.Add("rcce.flag_bytes", 1)
}
