// Package fault is the deterministic fault injector for the vSCC stack.
// It decides — from a seed and the simulated clock alone, never the wall
// clock — when a PCIe SIF packet is dropped, duplicated, delayed or
// corrupted, when the host communication task stalls or crash-restarts,
// when a software-cache line is silently corrupted, and when a remote
// MPB flag write is lost. Every decision comes from a hand-rolled
// splitmix64 stream keyed by (site, device), so the n-th event at a site
// always gets the same verdict: a failing schedule replays cycle-exact.
//
// The injector only decides; the model layers (internal/pcie,
// internal/host, internal/scc, internal/vscc) both apply the faults and
// carry the recovery machinery — sequence-numbered replay, watchdog
// restart, checksummed cache lines, write-verified flags, and the
// timeout/retry ladder of DESIGN.md §8. A nil *Injector is fully inert:
// every decision method on a nil receiver answers "no fault", so the
// fault-free fast paths stay byte-identical.
package fault

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Config selects what to inject. All rates are per 10,000 opportunities;
// zero disables that fault class. The zero Config injects nothing but
// still arms the recovery machinery (timeouts, checksums, replay), which
// is how the identity tests prove the machinery itself is silent.
type Config struct {
	// Seed keys every decision stream. Two runs with equal Seed and
	// equal workloads inject identical faults at identical cycles.
	Seed uint64

	// PCIe SIF packet faults, applied per posted packet and direction.
	DropPer10k    int        // packet vanishes after occupying the link
	DupPer10k     int        // packet delivered twice
	DelayPer10k   int        // packet held DelayCycles past its arrival
	CorruptPer10k int        // frame damaged in flight; CRC rejects it
	DelayCycles   sim.Cycles // extra latency of a delayed packet (default 2000)

	// FlagLossPer10k drops host-side flag stores (≤4 B) into device MPBs.
	FlagLossPer10k int
	// CacheCorruptPer10k flips a byte in a software-cache line as it
	// lands, without updating its checksum.
	CacheCorruptPer10k int
	// MMIOCorruptPer10k damages a fused 32 B vDMA register write on the
	// wire, exercising the command validator.
	MMIOCorruptPer10k int

	// StallAt freezes the host communication task for a window; CrashAt
	// crashes it (volatile state — caches, SIF buffers, registers,
	// streams — is lost) until the watchdog restarts it.
	StallAt []StallWindow
	CrashAt []sim.Cycles

	// DevCrashAt takes a whole SCC device down: its MPB contents are
	// lost at the crash and rebuilt on rejoin from the checkpoint image
	// every store since rolled forward. DevLinkDownAt severs only the device's
	// PCIe link (MPB state survives); posted frames are journaled and
	// replayed after the link returns. Both drive the epoch-based
	// membership machinery of internal/vscc.
	DevCrashAt    []DeviceFault
	DevLinkDownAt []DeviceFault

	// CkptInterval is the period of the crash-consistent device
	// checkpoints (0 = DefaultCkptInterval). Checkpoints are only taken
	// while a device-fault schedule is armed.
	CkptInterval sim.Cycles
	// RejoinCycles is how long a failed device stays down before it
	// rejoins (0 = DefaultRejoinCycles); DeviceFault.Down overrides it
	// per fault.
	RejoinCycles sim.Cycles

	// Recovery tunes the detection/retry machinery; zero fields take
	// DefaultRecovery values.
	Recovery Recovery
}

// Class is one per-10k rate class of Config.
type Class int

// The rate classes: PacketFault decides the SIF packet classes (Drop,
// Dup, Corrupt, Delay), Inject the device classes.
const (
	Drop Class = iota
	Dup
	Corrupt
	Delay
	FlagLoss
	CacheCorrupt
	MMIOCorrupt
)

// classes declares each rate class once: the -fault key that sets its
// rate, where it is decided, the event kind a hit logs, and its Config
// field. A packet class's site is a suffix to the SIF link's site
// ("pcie.h2d" + ".drop"); a device class is decided at its own site.
var classes = [...]struct {
	key, site, kind string
	rate            func(*Config) *int
}{
	Drop:         {"drop", ".drop", "inject.drop", func(c *Config) *int { return &c.DropPer10k }},
	Dup:          {"dup", ".dup", "inject.dup", func(c *Config) *int { return &c.DupPer10k }},
	Corrupt:      {"corrupt", ".corrupt", "inject.corrupt", func(c *Config) *int { return &c.CorruptPer10k }},
	Delay:        {"delay", ".delay", "inject.delay", func(c *Config) *int { return &c.DelayPer10k }},
	FlagLoss:     {"flagloss", "scc.flag", "inject.flagloss", func(c *Config) *int { return &c.FlagLossPer10k }},
	CacheCorrupt: {"cachecorrupt", "host.cache", "inject.cachecorrupt", func(c *Config) *int { return &c.CacheCorruptPer10k }},
	MMIOCorrupt:  {"mmio", "host.mmio", "inject.mmiocorrupt", func(c *Config) *int { return &c.MMIOCorruptPer10k }},
}

// RatesArmed reports whether any rate class has a nonzero rate.
func (c *Config) RatesArmed() bool {
	for _, r := range classes {
		if *r.rate(c) != 0 {
			return true
		}
	}
	return false
}

// DeviceFault schedules one whole-device outage: device Dev fails at
// cycle At and rejoins after Down cycles (0 = the Config's
// RejoinCycles).
type DeviceFault struct {
	At   sim.Cycles
	Dev  int
	Down sim.Cycles
}

// DeviceFaultsArmed reports whether the schedule contains any
// whole-device outage — the arming condition for checkpoints and the
// membership manager.
func (c *Config) DeviceFaultsArmed() bool {
	return c != nil && (len(c.DevCrashAt) > 0 || len(c.DevLinkDownAt) > 0)
}

// CheckDevices refuses a device fault on a device that a system of n
// devices does not have: such a fault would run and inject nothing.
// Both engines call it, so both refuse a schedule with one message.
func (c *Config) CheckDevices(n int) error {
	if c == nil {
		return nil
	}
	for _, s := range []struct {
		key    string
		faults []DeviceFault
	}{{"devcrash", c.DevCrashAt}, {"devlinkdown", c.DevLinkDownAt}} {
		for _, df := range s.faults {
			if df.Dev < 0 || df.Dev >= n {
				return fmt.Errorf("fault: %s at cycle %d names device %d, but the system has devices 0..%d", s.key, df.At, df.Dev, n-1)
			}
		}
	}
	return nil
}

// Default device-lifecycle timing: checkpoints every 500k cycles, a
// failed device returns after 200k (≈ 2 watchdog periods), and the
// membership manager lets in-flight committed traffic drain for 50k
// cycles before declaring the device down.
const (
	DefaultCkptInterval = sim.Cycles(500_000)
	DefaultRejoinCycles = sim.Cycles(200_000)
	DefaultDrainCycles  = sim.Cycles(50_000)
)

// ErrDeviceLost is the sentinel raised when a blocking operation is
// stranded on a crashed device and transparent retry is not enabled
// (devretry=0). It lives here — below every model layer — so the host
// fabric's forwarded-read path and the rcce protocol ladders raise the
// exact same instance; rcce re-exports it as rcce.ErrDeviceLost, which
// is the name callers match with errors.Is.
var ErrDeviceLost = errors.New("rcce: peer device lost")

// StallWindow freezes the host task at cycle At for For cycles.
type StallWindow struct {
	At  sim.Cycles
	For sim.Cycles
}

// Recovery holds the cycle budgets and retry bounds of the recovery
// ladder. Zero fields mean "use the default"; see DefaultRecovery.
type Recovery struct {
	// RetxTimeout is the base SIF retransmission timeout; attempt n waits
	// RetxTimeout<<n (exponential backoff). MaxRetx bounds the attempts.
	RetxTimeout sim.Cycles
	MaxRetx     int

	// WaitBudget is the base cycle budget of an engaged protocol wait;
	// each timeout doubles it and re-drives idempotent work, up to
	// MaxWaitRetries before the wait fails with a clear error.
	WaitBudget     sim.Cycles
	MaxWaitRetries int

	// WatchdogCycles is how long the host task stays down after a crash
	// before the watchdog restarts it.
	WatchdogCycles sim.Cycles

	// VerifyRetries bounds the read-back/rewrite attempts of a host-side
	// flag store. -1 disables write-verify entirely (for testing the
	// lost-completion error path).
	VerifyRetries int

	// DegradeAfter is the per-device recovery count past which the
	// protocol abandons its fast path and falls back to transparent
	// routing. 0 never degrades.
	DegradeAfter int

	// PromoteAfter is the hysteresis of the degradation latch: after
	// this many consecutive clean transfers a degraded device is
	// re-promoted to the fast path (its recovery count resets). -1
	// keeps the latch permanent; 0 takes the default.
	PromoteAfter int

	// DeviceRetry opts protocol waits into transparent device-loss
	// retry: an engaged wait whose peer device is down blocks until the
	// device rejoins instead of consuming retry-ladder attempts. Off,
	// the wait fails deterministically with rcce.ErrDeviceLost.
	DeviceRetry bool
}

// DefaultRecovery returns the recovery parameters used when a Config (or
// a system without faults) leaves them zero. The budgets are generous:
// a healthy run never hits them, so arming the machinery is free.
func DefaultRecovery() Recovery {
	return Recovery{
		RetxTimeout:    40_000, // ~4 PCIe round trips
		MaxRetx:        10,
		WaitBudget:     20_000_000,
		MaxWaitRetries: 5,
		WatchdogCycles: 100_000,
		VerifyRetries:  8,
		DegradeAfter:   0,
		PromoteAfter:   32,
	}
}

// withDefaults fills zero fields from DefaultRecovery. VerifyRetries -1
// is kept (disabled), as are DegradeAfter 0 (never) and PromoteAfter -1
// (permanent latch).
func (r Recovery) withDefaults() Recovery {
	d := DefaultRecovery()
	r.RetxTimeout = cmp.Or(r.RetxTimeout, d.RetxTimeout)
	r.MaxRetx = cmp.Or(r.MaxRetx, d.MaxRetx)
	r.WaitBudget = cmp.Or(r.WaitBudget, d.WaitBudget)
	r.MaxWaitRetries = cmp.Or(r.MaxWaitRetries, d.MaxWaitRetries)
	r.WatchdogCycles = cmp.Or(r.WatchdogCycles, d.WatchdogCycles)
	r.VerifyRetries = cmp.Or(r.VerifyRetries, d.VerifyRetries)
	r.PromoteAfter = cmp.Or(r.PromoteAfter, d.PromoteAfter)
	return r
}

// PacketVerdict is the injector's decision for one SIF packet. At most
// one of Drop/Dup/Corrupt is set; Delay composes with none of them.
type PacketVerdict struct {
	Drop    bool
	Dup     bool
	Corrupt bool
	Delay   sim.Cycles
}

// Event is one injection or recovery, stamped with the simulated cycle
// it happened at. The event log is the reproducibility witness: two runs
// of the same seeded schedule must produce identical logs.
type Event struct {
	Cycle sim.Cycles
	Kind  string // e.g. "inject.drop", "recover.retx"
	Site  string // e.g. "pcie.h2d", "host.cache"
	Dev   int    // device index, -1 when not device-specific
}

func (e Event) String() string {
	return fmt.Sprintf("%d %s %s dev=%d", e.Cycle, e.Kind, e.Site, e.Dev)
}

// maxEvents caps the in-memory log; past it only counters advance.
const maxEvents = 4096

// Injector draws fault decisions and records the injection/recovery
// history. All methods are safe on a nil receiver (no faults, nothing
// recorded).
type Injector struct {
	k    *sim.Kernel
	cfg  Config
	rec  Recovery
	sink *trace.Sink

	streams   map[streamKey]*uint64
	recovered map[int]int // per-device recovery count, feeds Degraded
	clean     map[int]int // consecutive clean transfers, feeds re-promotion
	stats     map[string]int64

	events  []Event
	dropped int
}

type streamKey struct {
	site, suffix string
	dev          int
}

// NewInjector builds an injector for kernel k. cfg.Recovery is
// normalized through DefaultRecovery.
func NewInjector(k *sim.Kernel, cfg Config) *Injector {
	cfg.DelayCycles = cmp.Or(cfg.DelayCycles, 2000)
	return &Injector{
		k:         k,
		cfg:       cfg,
		rec:       cfg.Recovery.withDefaults(),
		streams:   make(map[streamKey]*uint64),
		recovered: make(map[int]int),
		clean:     make(map[int]int),
		stats:     make(map[string]int64),
	}
}

// Instrument mirrors every event into sink counters
// ("fault.inject.drop", "fault.recover.retx", ...).
func (inj *Injector) Instrument(sink *trace.Sink) {
	if inj != nil {
		inj.sink = sink
	}
}

// Config returns the injector's configuration; zero on nil.
func (inj *Injector) Config() Config {
	if inj == nil {
		return Config{}
	}
	return inj.cfg
}

// Recovery returns the resolved recovery parameters; DefaultRecovery on
// nil, so callers need not special-case a fault-free system.
func (inj *Injector) Recovery() Recovery {
	if inj == nil {
		return DefaultRecovery()
	}
	return inj.rec
}

// stream returns the decision stream for (site+suffix, dev), creating
// it from the seed on first use. The per-site keying makes each site's
// decision sequence independent of every other site's traffic. The
// suffix (".drop", ".pick") stays a separate key so no decision builds
// a string; FNV-1a continued over it hashes the joined name.
func (inj *Injector) stream(site, suffix string, dev int) *uint64 {
	key := streamKey{site, suffix, dev}
	s, ok := inj.streams[key]
	if !ok {
		s = new(uint64)
		*s = inj.cfg.Seed ^ fnv1a(fnv1a(0xCBF29CE484222325, site), suffix) ^ (uint64(dev+1) * 0x9E3779B97F4A7C15)
		inj.streams[key] = s
	}
	return s
}

// Pick returns a deterministic index in [0, n) for the site's next
// corruption target (which byte to flip). n must be positive.
func (inj *Injector) Pick(site string, dev, n int) int {
	if inj == nil || n <= 0 {
		return 0
	}
	return int(SplitMix64(inj.stream(site, ".pick", dev)) % uint64(n))
}

// PacketFault decides the fate of one SIF packet at a site
// ("pcie.d2h"/"pcie.h2d"). Drop, dup and corrupt are mutually exclusive
// — one die roll picks among them — while delay rolls separately.
func (inj *Injector) PacketFault(site string, dev int) PacketVerdict {
	if inj == nil {
		return PacketVerdict{}
	}
	var v PacketVerdict
	switch {
	case inj.hit(Drop, site, dev):
		v.Drop = true
	case inj.hit(Dup, site, dev):
		v.Dup = true
	case inj.hit(Corrupt, site, dev):
		v.Corrupt = true
	}
	if !v.Drop && !v.Corrupt && inj.hit(Delay, site, dev) {
		v.Delay = inj.cfg.DelayCycles
	}
	return v
}

// Inject decides one fault of a device class for device dev: FlagLoss
// (a host-side flag store into its MPB vanishes), CacheCorrupt (a
// software-cache line landing for it is silently damaged) or MMIOCorrupt
// (a fused vDMA register write from it is damaged on the wire).
func (inj *Injector) Inject(c Class, dev int) bool {
	return inj != nil && inj.hit(c, "", dev)
}

// hit draws one decision of class c for device dev and logs a hit. A
// packet class draws at the SIF link's site keyed by its row's suffix;
// a device class passes link "" and draws at its row's site.
func (inj *Injector) hit(c Class, link string, dev int) bool {
	r := &classes[c]
	per10k := *r.rate(&inj.cfg)
	if per10k <= 0 {
		return false
	}
	site, suffix := r.site, ""
	if link != "" {
		site, suffix = link, r.site
	}
	if SplitMix64(inj.stream(site, suffix, dev))%10_000 >= uint64(per10k) {
		return false
	}
	inj.note(r.kind, site, dev)
	return true
}

// RecordInjection logs an injection applied outside the decision methods
// (host stall/crash windows, which come from the schedule, not a roll).
func (inj *Injector) RecordInjection(kind, site string, dev int) {
	if inj != nil {
		inj.note("inject."+kind, site, dev)
	}
}

// RecordRecovery logs one recovery action. dev ≥ 0 also advances that
// device's recovery count, which drives Degraded.
func (inj *Injector) RecordRecovery(kind, site string, dev int) {
	if inj == nil {
		return
	}
	inj.note("recover."+kind, site, dev)
	if dev >= 0 {
		inj.recovered[dev]++
		inj.clean[dev] = 0
	}
}

// Degraded reports whether device dev's recovery count has crossed the
// degradation threshold — the protocol should abandon its fast path.
func (inj *Injector) Degraded(dev int) bool {
	if inj == nil || inj.rec.DegradeAfter <= 0 {
		return false
	}
	return inj.recovered[dev] >= inj.rec.DegradeAfter
}

// RecoveryCount returns device dev's recovery count (0 on nil) — the
// before/after probe the protocol uses to classify a transfer as clean.
func (inj *Injector) RecoveryCount(dev int) int {
	if inj == nil {
		return 0
	}
	return inj.recovered[dev]
}

// CleanTransfer records one transfer that touched device dev without
// needing any recovery. After Recovery.PromoteAfter consecutive clean
// transfers a degraded device is re-promoted: its recovery count and
// streak reset, and the promotion is logged ("recover.promote"). The
// hysteresis closes the permanent-degradation latch: a burst of faults
// pushes a device off its fast path, but a healthy stretch brings the
// fast path back.
func (inj *Injector) CleanTransfer(dev int) {
	if inj == nil || dev < 0 {
		return
	}
	inj.clean[dev]++
	if inj.rec.PromoteAfter <= 0 || inj.clean[dev] < inj.rec.PromoteAfter {
		return
	}
	inj.clean[dev] = 0
	if inj.Degraded(dev) {
		inj.note("recover.promote", "vscc.proto", dev)
	}
	// A long clean streak also forgives sub-threshold recoveries, so
	// ancient faults cannot combine with fresh ones to degrade.
	inj.recovered[dev] = 0
}

// note appends to the event log and mirrors into stats and the sink —
// both the aggregate counter and, for device-specific events, a
// per-device variant ("fault.recover.retx.d1") that feeds the
// `vscctrace -recovery` table.
func (inj *Injector) note(kind, site string, dev int) {
	inj.stats[kind]++
	if inj.sink.Enabled() {
		inj.sink.Add("fault."+kind, 1)
		if dev >= 0 {
			inj.sink.Add("fault."+kind+".d"+strconv.Itoa(dev), 1)
		}
	}
	if len(inj.events) >= maxEvents {
		inj.dropped++
		return
	}
	inj.events = append(inj.events, Event{Cycle: inj.k.Now(), Kind: kind, Site: site, Dev: dev})
}

// Events returns a copy of the event log (nil on a nil injector).
//
//lint:ignore deadcode pcie's and fault's rerun tests compare two runs' logs with it
func (inj *Injector) Events() []Event {
	if inj == nil {
		return nil
	}
	return append([]Event(nil), inj.events...)
}

// Stat returns the total count of one event kind, e.g. "inject.drop".
//
//lint:ignore deadcode the recovery tests of six packages count injections and recoveries with it
func (inj *Injector) Stat(kind string) int64 {
	if inj == nil {
		return 0
	}
	return inj.stats[kind]
}

// Summary renders the event totals in a stable order — the digest the
// soak test compares across serial and parallel sweeps.
func (inj *Injector) Summary() string {
	if inj == nil {
		return ""
	}
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(inj.stats)) {
		fmt.Fprintf(&b, "%s=%d\n", k, inj.stats[k])
	}
	if inj.dropped > 0 {
		fmt.Fprintf(&b, "events-dropped=%d\n", inj.dropped)
	}
	return b.String()
}

// SplitMix64 advances the splitmix64 stream at state (Steele et al.,
// "Fast splittable pseudorandom number generators") and returns its
// draw: one add and three xor-shifts, chosen over math/rand so model
// packages stay free of global PRNG state.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fnv1a continues the 64-bit FNV-1a hash h over s: from the offset
// basis, fnv1a(fnv1a(basis, a), b) is the hash of a+b.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// ParseSpec parses the -fault flag grammar: comma-separated key=value
// settings. A rate is per 10k decisions and must lie in [0, 10000].
//
//	seed=N            decision-stream seed
//	drop=N            SIF drop rate per 10k packets
//	dup=N             SIF duplicate rate
//	delay=N[:CYCLES]  SIF delay rate, optional extra cycles (default 2000)
//	corrupt=N         SIF frame-corruption rate
//	flagloss=N        host flag-store loss rate
//	cachecorrupt=N    software-cache line corruption rate
//	mmio=N            vDMA register-write corruption rate
//	stall=AT:FOR      freeze the host task at cycle AT for FOR cycles (repeatable)
//	crash=AT          crash the host task at cycle AT (repeatable)
//	devcrash=AT:DEV[:DOWN]    crash device DEV at cycle AT, rejoin after DOWN (repeatable)
//	devlinkdown=AT:DEV[:DOWN] sever device DEV's PCIe link at cycle AT (repeatable)
//	ckpt=N            device checkpoint interval [cycles]
//	rejoin=N          default device down time before rejoin [cycles]
//	retx=N            base retransmission timeout [cycles]
//	maxretx=N         retransmission attempts bound
//	budget=N          base engaged-wait budget [cycles]
//	waitretries=N     engaged-wait retry bound
//	watchdog=N        crash-restart delay [cycles]
//	verify=N          flag write-verify retries (-1 disables)
//	degrade=N         per-device recoveries before falling back to routing
//	promote=N         consecutive clean transfers before re-promotion (-1 latches)
//	devretry=0|1      transparent retry across device loss (default 0: ErrDeviceLost)
//
// Example: "seed=42,drop=200,delay=100:5000,crash=400000,degrade=10".
// An empty spec returns (nil, nil): faults disabled.
func ParseSpec(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &Config{}
	// Parse errors name the offending token and its byte offset in the
	// (trimmed) spec, so a long machine-assembled spec — a chaos
	// campaign reproducer, a CI matrix entry — pinpoints its bad token
	// without manual counting.
	for tok, rest, more, off := "", spec, true, 0; more; off += len(tok) + 1 {
		tok, rest, more = strings.Cut(rest, ",")
		trimmed := strings.TrimSpace(tok)
		at := off + strings.Index(tok, trimmed)
		key, val, ok := strings.Cut(trimmed, "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec token %q at byte %d is not key=value", trimmed, at)
		}
		if err := applySetting(cfg, key, val); err != nil {
			return nil, fmt.Errorf("fault: spec token %q at byte %d: %w", trimmed, at, err)
		}
	}
	return cfg, nil
}

func applySetting(cfg *Config, key, val string) error {
	// A count or cycle-count setting names only its field here: its
	// value is parsed once, after the switch. Errors stay token-relative:
	// ParseSpec wraps them with the offending token and its byte offset.
	var count *int
	rate := false // count is a per-10k rate
	var cyc *sim.Cycles
	cycVal := val
	switch key {
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", val)
		}
		cfg.Seed = n
	case "stall":
		at, dur, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("want AT:FOR, got %q", val)
		}
		a, err := parseCycles(at)
		if err != nil {
			return err
		}
		d, err := parseCycles(dur)
		if err != nil {
			return err
		}
		cfg.StallAt = append(cfg.StallAt, StallWindow{At: a, For: d})
	case "crash":
		cfg.CrashAt = append(cfg.CrashAt, 0)
		cyc = &cfg.CrashAt[len(cfg.CrashAt)-1]
	case "devcrash", "devlinkdown":
		parts := strings.Split(val, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return fmt.Errorf("want AT:DEV[:DOWN], got %q", val)
		}
		at, err := parseCycles(parts[0])
		if err != nil {
			return err
		}
		dev, err := parseCount(parts[1])
		if err != nil {
			return err
		}
		df := DeviceFault{At: at, Dev: dev}
		if len(parts) == 3 {
			if df.Down, err = parseCycles(parts[2]); err != nil {
				return err
			}
		}
		if key == "devcrash" {
			cfg.DevCrashAt = append(cfg.DevCrashAt, df)
		} else {
			cfg.DevLinkDownAt = append(cfg.DevLinkDownAt, df)
		}
	case "devretry":
		n, err := parseCount(val)
		if err != nil {
			return err
		}
		cfg.Recovery.DeviceRetry = n != 0
	case "ckpt":
		cyc = &cfg.CkptInterval
	case "rejoin":
		cyc = &cfg.RejoinCycles
	case "retx":
		cyc = &cfg.Recovery.RetxTimeout
	case "maxretx":
		count = &cfg.Recovery.MaxRetx
	case "budget":
		cyc = &cfg.Recovery.WaitBudget
	case "waitretries":
		count = &cfg.Recovery.MaxWaitRetries
	case "watchdog":
		cyc = &cfg.Recovery.WatchdogCycles
	case "verify":
		count = &cfg.Recovery.VerifyRetries
	case "degrade":
		count = &cfg.Recovery.DegradeAfter
	case "promote":
		count = &cfg.Recovery.PromoteAfter
	default:
		c := Class(0)
		for c < Class(len(classes)) && classes[c].key != key {
			c++
		}
		if c == Class(len(classes)) {
			return errors.New("unknown setting")
		}
		count, rate = classes[c].rate(cfg), true
		if r, extra, ok := strings.Cut(val, ":"); ok && c == Delay {
			// delay=N:CYCLES: the rate, then the extra latency.
			val, cycVal, cyc = r, extra, &cfg.DelayCycles
		}
	}
	var err error
	if count != nil {
		*count, err = parseCount(val)
		if err == nil && rate && (*count < 0 || *count > 10000) {
			err = fmt.Errorf("rate %q per 10k outside [0, 10000]", val)
		}
	}
	if cyc != nil && err == nil {
		*cyc, err = parseCycles(cycVal)
	}
	return err
}

func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return n, nil
}

// parseCycles rejects a negative count: sim.Cycles is unsigned, so -1
// would wrap to ~2^64 and freeze its target forever.
func parseCycles(s string) (sim.Cycles, error) {
	n, err := parseCount(s)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative cycle count %q", s)
	}
	return sim.Cycles(n), err
}
