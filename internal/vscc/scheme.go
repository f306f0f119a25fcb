package vscc

import (
	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
)

// Scheme selects the inter-device communication scheme.
type Scheme int

// The available schemes; see the package comment and the schemes table.
const (
	SchemeRouting Scheme = iota
	SchemeHostRouted
	SchemeHWAccel
	SchemeCachedGet
	SchemeRemotePut
	SchemeVDMA
)

// placement says whose MPB a core puts a payload into.
type placement int

const (
	// placeRemote: the sender writes the receiver's MPB and the receiver
	// reads its own (remote put, local get). That buffer is shared by
	// every potential sender, so the receiver grants it before each chunk.
	placeRemote placement = iota
	// placeLocal: the sender writes its own MPB and the receiver fetches
	// it (local put, remote get). Only the receiver's acknowledgement of
	// the previous chunk gates reuse, so a message's first chunk needs no
	// grant.
	placeLocal
)

// flow names the flag discipline of a scheme's transfers.
type flow int

const (
	// flowRCCE: above the direct threshold, the unmodified RCCE default
	// protocol over the transparent path; below it, the clear-flag family.
	flowRCCE flow = iota
	// flowFlag: clear-based sent/ready flags, one chunk of the whole MPB
	// payload area in flight (flagSend/flagRecv).
	flowFlag
	// flowSeq: per-pair chunk counters encoded in the flag values and never
	// cleared, two half-MPB slots in flight; above the threshold the host's
	// vDMA controller carries each chunk from the sender's MPB to the
	// receiver's (seqSend/seqRecv).
	flowSeq
)

// schemeDesc is everything the paper's schemes differ in (§3.3, Fig. 4):
// every other function reads a scheme's behaviour out of its row.
type schemeDesc struct {
	name string // as in the paper's figures
	key  string // stable identifier for file names, metric names, sweep labels
	// ack is who acknowledges an off-chip write; a fabric-wide property.
	ack pcie.AckMode
	// region is how the communication task treats the payload regions.
	// Write-combining and posted regions take payload stores without
	// stalling the core for an acknowledgement; flag stores always stall.
	region host.Mode
	// threshold is the default small-message cutoff: at or below it a core
	// moves the payload itself instead of engaging the host machinery
	// ("about 32 B to 128 B dependent on the communication scheme", §3.3).
	threshold int
	// place is where a core-driven transfer puts the payload. The vDMA
	// scheme's cores move the payload themselves only below the threshold
	// and when degraded, by remote put.
	place placement
	// publish: above the threshold the sender tells the host cache where
	// the message lies (update) and retires that copy before reusing the
	// buffer (invalidate), §3.1.
	publish bool
	flow    flow
}

var schemes = [...]schemeDesc{
	SchemeRouting:    {name: "transparent-routing", key: "routing", ack: pcie.AckRemote, region: host.ModeTransparent, flow: flowRCCE},
	SchemeHostRouted: {name: "host-routed (lower bound)", key: "host-routed", ack: pcie.AckHost, region: host.ModeTransparent, flow: flowFlag},
	SchemeHWAccel:    {name: "hw-accelerated (upper bound)", key: "hw-accel", ack: pcie.AckFPGA, region: host.ModeTransparent, flow: flowFlag},
	SchemeCachedGet:  {name: "local put/remote get + cache", key: "cached-get", ack: pcie.AckHost, region: host.ModeCached, threshold: 32, place: placeLocal, publish: true, flow: flowFlag},
	SchemeRemotePut:  {name: "remote put + write combining", key: "remote-put", ack: pcie.AckHost, region: host.ModeWriteCombining, threshold: 128, flow: flowFlag},
	// The vDMA engine owns the bulk path; the direct small-message path
	// posts its payload writes through the communication task.
	SchemeVDMA: {name: "local put/local get + vDMA", key: "vdma", ack: pcie.AckHost, region: host.ModePosted, threshold: 64, flow: flowSeq},
}

var invalidScheme = schemeDesc{name: "invalid", key: "invalid"}

func (s Scheme) desc() *schemeDesc {
	if s < 0 || int(s) >= len(schemes) {
		return &invalidScheme
	}
	return &schemes[s]
}

// String names the scheme as in the paper's figures.
func (s Scheme) String() string { return s.desc().name }

// Key returns a short stable identifier for file names, metric names and
// sweep labels (the String form carries spaces and slashes).
func (s Scheme) Key() string { return s.desc().key }

// SchemeByKey parses a Key back into a scheme.
func SchemeByKey(key string) (Scheme, bool) {
	for s := range schemes {
		if schemes[s].key == key {
			return Scheme(s), true
		}
	}
	return 0, false
}

// ackMode returns the write-acknowledge mode a scheme requires.
func (s Scheme) ackMode() pcie.AckMode { return s.desc().ack }

// regionMode returns how the communication task treats payload regions.
func (s Scheme) regionMode() host.Mode { return s.desc().region }

// DirectThreshold returns the scheme's default small-message cutoff.
func (s Scheme) DirectThreshold() int { return s.desc().threshold }

// Compatible reports whether sessions of both schemes can share one
// fabric: the PCIe acknowledgement mode is a fabric-wide property, so
// only schemes with the same mode may coexist (NewTenantSession
// enforces this at admission).
func (s Scheme) Compatible(other Scheme) bool { return s.ackMode() == other.ackMode() }

// ackPolicy is the write-acknowledgement class of one off-chip store, as
// the PDES port (which has no host region table) sees it.
type ackPolicy int

const (
	ackPosted ackPolicy = iota // fire and forget (WCB absorbed)
	ackFPGA                    // FPGA fast-ack: local SIF stall only
	ackHost                    // blocks for the host's receipt
	ackRemote                  // blocks for the remote apply (4 hops)
)

// writePolicy classifies a store at LMB offset off: the scheme's ack
// mode, except that under a host-ack scheme whose payload regions are
// write-combining or posted a store into a payload area (told from the
// flag area by offset) is posted.
func (s Scheme) writePolicy(off int) ackPolicy {
	d := s.desc()
	switch d.ack {
	case pcie.AckRemote:
		return ackRemote
	case pcie.AckFPGA:
		return ackFPGA
	}
	posted := d.region == host.ModeWriteCombining || d.region == host.ModePosted
	if posted && off%mem.CoreLMBSize < rcce.PayloadBytes {
		return ackPosted
	}
	return ackHost
}
