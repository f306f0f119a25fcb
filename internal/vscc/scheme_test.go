package vscc

import (
	"bytes"
	"fmt"
	"testing"

	"vscc/internal/host"
	"vscc/internal/ircce"
	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/sim"
)

var sixSchemes = []Scheme{SchemeRouting, SchemeHostRouted, SchemeHWAccel, SchemeCachedGet, SchemeRemotePut, SchemeVDMA}

var pinSizes = []int{32, 64, 128, 4096, 20000}

// pinPlaces puts rank 0 on device 0 and rank 1 on device 1.
var pinPlaces = []rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}}

// pingPong runs two round trips between the two ranks of a session and
// returns rank 0's clock when its last receive completes. Two rounds, so
// the second message meets what the first left behind (a published host
// copy, advanced vDMA counters).
func pingPong(t *testing.T, session *rcce.Session, size int) sim.Cycles {
	t.Helper()
	msg := pattern(size, byte(size))
	var done sim.Cycles
	err := session.Run(func(r *rcce.Rank) {
		got := make([]byte, size)
		for i := 0; i < 2; i++ {
			if r.ID() == 0 {
				r.Send(1, msg)
				r.Recv(1, got)
			} else {
				r.Recv(0, got)
				r.Send(0, got)
			}
		}
		if r.ID() == 0 {
			done = r.Now()
			if !bytes.Equal(got, msg) {
				t.Errorf("%d-byte ping-pong corrupted", size)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestSchemeCyclesPinned pins the simulated cost of every scheme on both
// engines, on each side of every direct threshold (32/64/128 B), at one
// chunk (4096 B) and at several (20000 B): a protocol change that moves a
// cycle fails here before it moves a figure. The values are those of the
// commit before the scheme table existed.
func TestSchemeCyclesPinned(t *testing.T) {
	want := map[string][2]sim.Cycles{ // {classic, PDES with 1 worker}
		"routing/32":        {220204, 219640},
		"routing/64":        {308980, 308316},
		"routing/128":       {486532, 485668},
		"routing/4096":      {11494756, 11481492},
		"routing/20000":     {55794252, 55730856},
		"host-routed/32":    {166135, 176697},
		"host-routed/64":    {210279, 220613},
		"host-routed/128":   {298567, 308445},
		"host-routed/4096":  {5772423, 5754029},
		"host-routed/20000": {27888903, 27757673},
		"hw-accel/32":       {124067, 124352},
		"hw-accel/64":       {126143, 126392},
		"hw-accel/128":      {130295, 130472},
		"hw-accel/4096":     {387719, 383432},
		"hw-accel/20000":    {1596403, 1574704},
		"cached-get/32":     {134476, 176336},
		"cached-get/64":     {137276, 135884},
		"cached-get/128":    {139468, 226916},
		"cached-get/4096":   {490336, 530160},
		"cached-get/20000":  {2251080, 2263556},
		"remote-put/32":     {147655, 134341},
		"remote-put/64":     {150679, 135901},
		"remote-put/128":    {156727, 139021},
		"remote-put/4096":   {439231, 332461},
		"remote-put/20000":  {1735483, 1285173},
		"vdma/32":           {123836, 134110},
		"vdma/64":           {125912, 135670},
		"vdma/128":          {181832, 186742},
		"vdma/4096":         {582056, 549482},
		"vdma/20000":        {1955104, 1575682},
	}
	for _, scheme := range sixSchemes {
		for _, size := range pinSizes {
			name := fmt.Sprintf("%s/%d", scheme.Key(), size)
			cfg := Config{Devices: 2, Scheme: scheme}
			sys, err := NewSystem(sim.NewKernel(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			classic, err := sys.NewSessionAt(pinPlaces)
			if err != nil {
				t.Fatal(err)
			}
			psys, err := NewPDESSystem(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			pdes, err := psys.NewSessionAt(pinPlaces)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]sim.Cycles{pingPong(t, classic, size), pingPong(t, pdes, size)}
			if got != want[name] {
				t.Errorf("%q: {%d, %d}, pinned {%d, %d}", name, got[0], got[1], want[name][0], want[name][1])
			}
		}
	}

	// One non-blocking transfer: isend/irecv of 20000 B over the vDMA flags.
	sys := newSystem(t, 2, SchemeVDMA)
	session, err := sys.NewSessionAt(pinPlaces)
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(20000, 7)
	got := make([]byte, len(msg))
	var done [2]sim.Cycles
	err = session.Run(func(r *rcce.Rank) {
		eng := ircce.New(r)
		var q *ircce.Request
		var err error
		if r.ID() == 0 {
			q, err = eng.Isend(1, msg)
		} else {
			q, err = eng.Irecv(0, got)
		}
		if err != nil {
			t.Error(err)
			return
		}
		eng.Wait(q)
		done[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("async transfer corrupted")
	}
	if wantAsync := [2]sim.Cycles{491383, 480715}; done != wantAsync {
		t.Errorf("async isend/irecv of 20000 B: sender %d, receiver %d; pinned %d, %d", done[0], done[1], wantAsync[0], wantAsync[1])
	}
}

// TestSchemeTable holds every scheme's derived properties to the values
// the per-property switches returned before the table replaced them.
func TestSchemeTable(t *testing.T) {
	const ( // the second core of a tile: its LMB half starts at CoreLMBSize
		payloadOff = mem.CoreLMBSize + 64                // inside its payload area
		flagOff    = mem.CoreLMBSize + rcce.PayloadBytes // first byte of its flag area
	)
	rows := []struct {
		scheme    Scheme
		name, key string
		ack       pcie.AckMode
		region    host.Mode
		threshold int
		payload   ackPolicy // PDES write policy at payloadOff
		flag      ackPolicy // ... and at flagOff
	}{
		{SchemeRouting, "transparent-routing", "routing", pcie.AckRemote, host.ModeTransparent, 0, ackRemote, ackRemote},
		{SchemeHostRouted, "host-routed (lower bound)", "host-routed", pcie.AckHost, host.ModeTransparent, 0, ackHost, ackHost},
		{SchemeHWAccel, "hw-accelerated (upper bound)", "hw-accel", pcie.AckFPGA, host.ModeTransparent, 0, ackFPGA, ackFPGA},
		{SchemeCachedGet, "local put/remote get + cache", "cached-get", pcie.AckHost, host.ModeCached, 32, ackHost, ackHost},
		{SchemeRemotePut, "remote put + write combining", "remote-put", pcie.AckHost, host.ModeWriteCombining, 128, ackPosted, ackHost},
		{SchemeVDMA, "local put/local get + vDMA", "vdma", pcie.AckHost, host.ModePosted, 64, ackPosted, ackHost},
	}
	for _, w := range rows {
		s := w.scheme
		if s.String() != w.name || s.Key() != w.key {
			t.Errorf("scheme %d: String %q Key %q, want %q %q", s, s.String(), s.Key(), w.name, w.key)
		}
		if back, ok := SchemeByKey(s.Key()); !ok || back != s {
			t.Errorf("%s: key does not round-trip (got %v, %v)", w.key, back, ok)
		}
		if s.ackMode() != w.ack || s.regionMode() != w.region || s.DirectThreshold() != w.threshold {
			t.Errorf("%s: ack %v region %v threshold %d, want %v %v %d",
				w.key, s.ackMode(), s.regionMode(), s.DirectThreshold(), w.ack, w.region, w.threshold)
		}
		for _, o := range rows { // one fabric, one ack mode
			if s.Compatible(o.scheme) != (w.ack == o.ack) {
				t.Errorf("%s/%s: Compatible = %v", w.key, o.key, s.Compatible(o.scheme))
			}
		}
		if p, f := s.writePolicy(payloadOff), s.writePolicy(flagOff); p != w.payload || f != w.flag {
			t.Errorf("%s: pdes write policy payload %d flag %d, want %d %d", w.key, p, f, w.payload, w.flag)
		}
	}
	for _, bad := range []Scheme{-1, Scheme(len(sixSchemes))} {
		if bad.String() != "invalid" || bad.Key() != "invalid" {
			t.Errorf("scheme %d: String %q Key %q, want invalid", bad, bad.String(), bad.Key())
		}
	}
	if _, ok := SchemeByKey("invalid"); ok {
		t.Error(`SchemeByKey("invalid") resolved`)
	}
}
