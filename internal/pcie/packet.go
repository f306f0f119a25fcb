package pcie

// SIF packet framing and the sequence-numbered replay channel. In the
// fault-free configuration every posted transfer bypasses this layer and
// goes straight to the link, so the fast path is byte-identical to a
// build without it. With an injector attached, each posted transfer is
// framed (sequence number + length + CRC), subjected to the injector's
// verdict, and delivered through a reorder buffer that guarantees
// exactly-once in-order delivery — the property the host task's
// data-before-flag FIFO depends on. Lost or damaged frames are recovered
// by retransmission timers with exponential backoff; a frame that fails
// its CRC is counted and discarded exactly like a drop, which is what
// lets the framing validator double as the recovery trigger.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"vscc/internal/fault"
	"vscc/internal/noc"
	"vscc/internal/sim"
)

// HeaderBytes is the wire size of a SIF frame header: 16 bytes of
// fields plus a full CRC-32, so any single error burst up to 32 bits is
// guaranteed rejected.
const HeaderBytes = 20

// Header is the SIF frame header: sequence number, payload length, a
// kind tag, the membership epoch of the target device, and a CRC-32
// over the rest.
type Header struct {
	Seq    uint64
	Length uint32
	Kind   byte
	// Epoch is the device membership epoch the frame was stamped with
	// (see vscc.Membership). A frame whose epoch disagrees with the
	// receiver's current epoch is pre-crash traffic and is rejected.
	// Epoch 0 — no membership manager — encodes exactly as the old
	// reserved byte, so armed runs without device faults stay
	// byte-identical.
	Epoch uint8
}

// EncodeHeader serializes h with its CRC.
func EncodeHeader(h Header) [HeaderBytes]byte {
	var b [HeaderBytes]byte
	binary.LittleEndian.PutUint64(b[0:], h.Seq)
	binary.LittleEndian.PutUint32(b[8:], h.Length)
	b[12] = h.Kind
	b[13] = 0x5A // frame marker
	b[14] = h.Epoch
	// b[15] reserved; the CRC covers it, the marker and the epoch.
	binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(b[:16]))
	return b
}

// ErrBadFrame rejects a frame whose marker or CRC does not check out.
var ErrBadFrame = errors.New("pcie: bad SIF frame")

// DecodeHeader validates and parses a SIF frame header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderBytes {
		return Header{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadFrame, len(b), HeaderBytes)
	}
	if b[13] != 0x5A {
		return Header{}, fmt.Errorf("%w: marker %#x", ErrBadFrame, b[13])
	}
	if b[15] != 0 {
		return Header{}, fmt.Errorf("%w: reserved byte %#x", ErrBadFrame, b[15])
	}
	if got, want := binary.LittleEndian.Uint32(b[16:]), crc32.ChecksumIEEE(b[:16]); got != want {
		return Header{}, fmt.Errorf("%w: crc %#08x, want %#08x", ErrBadFrame, got, want)
	}
	return Header{
		Seq:    binary.LittleEndian.Uint64(b[0:]),
		Length: binary.LittleEndian.Uint32(b[8:]),
		Kind:   b[12],
		Epoch:  b[14],
	}, nil
}

// DeviceView is the membership manager's answer to "may I talk to this
// device right now, and in which epoch". A nil view (no device faults
// armed) means every device is permanently usable in epoch 0.
type DeviceView interface {
	// Usable reports whether device dev is Up or Draining — i.e. frames
	// to and from it may still use the wire.
	Usable(dev int) bool
	// Epoch returns device dev's current membership epoch.
	Epoch(dev int) uint8
}

// outPacket is one posted transfer awaiting acknowledgement-by-arrival.
type outPacket struct {
	bytes    int
	deliver  func()
	attempts int
	arrived  bool
	// cancelRetx disarms the current attempt's retransmission timer; a
	// cancelled timer leaves no event on the simulated timeline, keeping
	// zero-fault armed runs cycle-identical to bare-link runs.
	cancelRetx func()
}

// Channel is one direction of one device's SIF connection with
// sequence-numbered idempotent replay layered over the raw link.
type Channel struct {
	k    *sim.Kernel
	link *noc.Link
	inj  *fault.Injector
	site string
	dev  int
	rec  fault.Recovery
	// view gates the wire on device membership; nil means always up.
	view DeviceView

	nextSeq   uint64 // last sequence number issued
	delivered uint64 // highest sequence delivered in order
	// outstanding holds posted-but-not-yet-delivered packets by sequence
	// number; arrivals past a gap park here until the gap closes.
	outstanding map[uint64]*outPacket
}

// newChannel wraps link; k and inj stay nil until SetFaults arms the
// fabric, and a nil-injector channel forwards straight to the link.
func newChannel(link *noc.Link, site string, dev int) *Channel {
	return &Channel{link: link, site: site, dev: dev}
}

// arm attaches the kernel and injector (see Fabric.SetFaults).
func (c *Channel) arm(k *sim.Kernel, inj *fault.Injector) {
	c.k = k
	c.inj = inj
	c.rec = inj.Recovery()
	c.outstanding = make(map[uint64]*outPacket)
}

// Post sends a posted transfer: the calling process is charged the
// serialization delay and deliver runs when the bytes arrive. Without an
// injector this is exactly link.TransferAsync; with one, the transfer is
// framed, faulted, replayed and deduplicated, preserving the link's
// exactly-once in-order semantics through arbitrary drop/dup/delay.
func (c *Channel) Post(p *sim.Proc, bytes int, deliver func()) {
	if c.inj == nil {
		c.link.TransferAsync(p, bytes, deliver)
		return
	}
	c.nextSeq++
	c.outstanding[c.nextSeq] = &outPacket{bytes: bytes, deliver: deliver}
	c.transmit(p, c.nextSeq)
}

// epoch returns the current membership epoch of this channel's device.
func (c *Channel) epoch() uint8 {
	if c.view == nil {
		return 0
	}
	return c.view.Epoch(c.dev)
}

// transmit pushes one attempt of packet seq onto the wire and arms its
// retransmission timer.
func (c *Channel) transmit(p *sim.Proc, seq uint64) {
	op := c.outstanding[seq]
	if op == nil || op.arrived {
		return
	}
	if c.view != nil && !c.view.Usable(c.dev) {
		// The device is down: hold the frame in the journal without
		// burning the wire or a retransmission attempt. The timer keeps
		// ticking at the base period so the frame re-offers itself, and
		// the membership manager's rejoin replay re-drives it at once.
		op.cancelRetx = c.k.AfterCancel(c.rec.RetxTimeout, func() { c.checkRetx(seq) })
		return
	}
	op.attempts++
	frame := EncodeHeader(Header{Seq: seq, Length: uint32(op.bytes), Epoch: c.epoch()})
	v := c.inj.PacketFault(c.site, c.dev)
	switch {
	case v.Drop:
		// The frame occupies the wire and vanishes.
		c.link.TransferAsync(p, op.bytes, nil)
	case v.Corrupt:
		frame[c.inj.Pick(c.site, c.dev, HeaderBytes)] ^= 0x40
		fallthrough
	default:
		arrive := func() { c.receive(frame) }
		if v.Delay > 0 {
			delay := v.Delay
			c.link.TransferAsync(p, op.bytes, func() { c.k.After(delay, arrive) })
		} else {
			c.link.TransferAsync(p, op.bytes, arrive)
		}
		if v.Dup {
			c.link.TransferAsync(p, op.bytes, arrive)
		}
	}
	// Exponential backoff, capped so the shift cannot overflow.
	shift := op.attempts - 1
	if shift > 16 {
		shift = 16
	}
	op.cancelRetx = c.k.AfterCancel(c.rec.RetxTimeout<<shift, func() { c.checkRetx(seq) })
}

// receive handles one frame arrival: validate, deduplicate, and drain
// the reorder buffer in sequence order.
func (c *Channel) receive(frame [HeaderBytes]byte) {
	h, err := DecodeHeader(frame[:])
	if err != nil {
		// Damaged in flight; the CRC rejection downgrades it to a drop
		// and the retransmission timer recovers it.
		c.inj.RecordRecovery("crc-reject", c.site, c.dev)
		return
	}
	if c.view != nil {
		if !c.view.Usable(c.dev) {
			// The endpoint is down; whatever was still in flight is
			// void. The sender's journal replays it after rejoin.
			c.inj.RecordRecovery("dev-reject", c.site, c.dev)
			return
		}
		if h.Epoch != c.view.Epoch(c.dev) {
			// Pre-crash traffic surfacing in a later epoch (a delayed or
			// duplicated frame that outlived its device incarnation).
			// Rejecting it is what makes rejoin safe; retransmission
			// re-stamps the current epoch and recovers the payload.
			c.inj.RecordRecovery("epoch-reject", c.site, c.dev)
			return
		}
	}
	// The signed distance tolerates sequence-number wraparound: a frame
	// just past a delivered counter near ^uint64(0) must still count as
	// new, not as a duplicate from 2^64 packets ago.
	if int64(h.Seq-c.delivered) <= 0 {
		// Duplicate of an already-delivered frame: idempotent discard.
		c.inj.RecordRecovery("dup-discard", c.site, c.dev)
		return
	}
	op := c.outstanding[h.Seq]
	if op == nil || op.arrived {
		// Duplicate of a frame parked in the reorder buffer.
		c.inj.RecordRecovery("dup-discard", c.site, c.dev)
		return
	}
	op.arrived = true
	if op.cancelRetx != nil {
		op.cancelRetx()
	}
	for {
		next, ok := c.outstanding[c.delivered+1]
		if !ok || !next.arrived {
			return
		}
		c.delivered++
		delete(c.outstanding, c.delivered)
		if next.deliver != nil {
			next.deliver()
		}
	}
}

// checkRetx fires when packet seq's retransmission timer expires.
func (c *Channel) checkRetx(seq uint64) {
	op := c.outstanding[seq]
	if op == nil || op.arrived {
		return // delivered (or drained) in time
	}
	if op.attempts > c.rec.MaxRetx {
		// Unrecoverable. Fail through a spawned process so Kernel.Run
		// reports a clean, deterministic error instead of unwinding the
		// scheduler.
		site, dev, attempts := c.site, c.dev, op.attempts
		c.k.Spawn("pcie.retx-fail", func(p *sim.Proc) {
			panic(fmt.Sprintf("pcie: %s dev %d seq %d lost after %d attempts", site, dev, seq, attempts))
		})
		return
	}
	c.inj.RecordRecovery("retx", c.site, c.dev)
	c.k.Spawn("pcie.retx", func(p *sim.Proc) { c.transmit(p, seq) })
}

// Replay retransmits every journaled frame that has not arrived yet, in
// sequence order (sorted, so a rejoin replays deterministically). It
// returns the frame and byte totals, for the replay.* trace counters.
// Each replayed frame is re-stamped with the device's current epoch.
func (c *Channel) Replay(p *sim.Proc) (frames, bytes int) {
	if c.outstanding == nil {
		return 0, 0
	}
	seqs := make([]uint64, 0, len(c.outstanding))
	for seq, op := range c.outstanding {
		if !op.arrived {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return int64(seqs[i]-seqs[j]) < 0 })
	for _, seq := range seqs {
		op := c.outstanding[seq]
		if op == nil || op.arrived {
			// Delivered while an earlier replay parked on the wire for
			// serialization: transmit charges p the link occupancy, and
			// in-flight arrivals may drain the reorder buffer meanwhile.
			continue
		}
		if op.cancelRetx != nil {
			op.cancelRetx()
		}
		frames++
		bytes += op.bytes
		c.transmit(p, seq)
	}
	return frames, bytes
}

// SetFaults arms sequence-numbered replay on every link of the fabric.
// Must be called before any posted traffic.
func (f *Fabric) SetFaults(k *sim.Kernel, inj *fault.Injector) {
	for _, pair := range f.chans {
		pair.d2h.arm(k, inj)
		pair.h2d.arm(k, inj)
	}
}

// SetMembership installs a device membership view on every channel:
// frames to a down device are journaled instead of transmitted, and
// cross-epoch arrivals are rejected. Requires SetFaults first (the
// fault-free fast path has no framing to stamp epochs into).
func (f *Fabric) SetMembership(v DeviceView) {
	for _, pair := range f.chans {
		pair.d2h.view = v
		pair.h2d.view = v
	}
}

// ReplayDevice retransmits both directions of device d's journal after
// a rejoin and returns the combined frame/byte totals.
func (f *Fabric) ReplayDevice(p *sim.Proc, d int) (frames, bytes int) {
	fr1, by1 := f.chans[d].h2d.Replay(p)
	fr2, by2 := f.chans[d].d2h.Replay(p)
	return fr1 + fr2, by1 + by2
}

// PostD2H sends a posted device-to-host transfer on device d's link
// through the replay channel.
func (f *Fabric) PostD2H(p *sim.Proc, d, bytes int, deliver func()) {
	f.chans[d].d2h.Post(p, bytes, deliver)
}

// PostH2D sends a posted host-to-device transfer on device d's link.
func (f *Fabric) PostH2D(p *sim.Proc, d, bytes int, deliver func()) {
	f.chans[d].h2d.Post(p, bytes, deliver)
}
