package taskrt

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Task-spec grammar: a line-oriented description of a region set and a
// task DAG, the taskbench -graph input format and the fuzz surface of
// this package (mirroring the internal/fault ParseSpec setup). One
// declaration per line, '#' starts a comment:
//
//	region <name> <bytes> [owner=<rank>]
//	task <name> [in=r1,r2] [out=r3] [inout=r4] [flops=<n>]
//
// Names are [A-Za-z0-9._-]+. Regions must be declared before use and a
// task may touch a region through exactly one mode. Region sizes are
// capped at SpecMaxRegionBytes so hostile inputs cannot demand
// unbounded allocations. Built tasks get synthetic deterministic
// bodies: every produced region is a pure digest of the task's name and
// its input contents.

// SpecMaxRegionBytes caps one spec-declared region (tighter than the
// runtime's own MaxRegionBytes: spec inputs are untrusted).
const SpecMaxRegionBytes = 1 << 16

// SpecRegion is one parsed region declaration.
type SpecRegion struct {
	Name  string
	Bytes int
	Owner int // -1 = round-robin
}

// SpecTask is one parsed task declaration.
type SpecTask struct {
	Name  string
	In    []string
	Out   []string
	InOut []string
	Flops float64
}

// Spec is a parsed task-spec document.
type Spec struct {
	Regions []SpecRegion
	Tasks   []SpecTask
}

// ParseSpec parses the grammar above. Errors carry the 1-based line.
func ParseSpec(src string) (*Spec, error) {
	sp := &Spec{}
	regions := make(map[string]bool)
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "region":
			err = sp.parseRegion(fields[1:], regions)
		case "task":
			err = sp.parseTask(fields[1:], regions)
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("taskrt spec line %d: %w", ln+1, err)
		}
	}
	return sp, nil
}

func (sp *Spec) parseRegion(fields []string, regions map[string]bool) error {
	if len(fields) < 2 || len(fields) > 3 {
		return fmt.Errorf("want: region <name> <bytes> [owner=<rank>]")
	}
	name := fields[0]
	if !specName(name) {
		return fmt.Errorf("bad region name %q", name)
	}
	if regions[name] {
		return fmt.Errorf("duplicate region %q", name)
	}
	bytes, err := strconv.Atoi(fields[1])
	if err != nil || bytes <= 0 || bytes > SpecMaxRegionBytes {
		return fmt.Errorf("region %q size %q outside (0, %d]", name, fields[1], SpecMaxRegionBytes)
	}
	owner := -1
	if len(fields) == 3 {
		v, ok := strings.CutPrefix(fields[2], "owner=")
		if !ok {
			return fmt.Errorf("region %q: unknown option %q", name, fields[2])
		}
		owner, err = strconv.Atoi(v)
		if err != nil || owner < 0 || owner >= 256 {
			return fmt.Errorf("region %q owner %q outside [0, 256)", name, v)
		}
	}
	regions[name] = true
	sp.Regions = append(sp.Regions, SpecRegion{Name: name, Bytes: bytes, Owner: owner})
	return nil
}

func (sp *Spec) parseTask(fields []string, regions map[string]bool) error {
	if len(fields) == 0 {
		return fmt.Errorf("want: task <name> [in=...] [out=...] [inout=...] [flops=<n>]")
	}
	t := SpecTask{Name: fields[0]}
	if !specName(t.Name) {
		return fmt.Errorf("bad task name %q", t.Name)
	}
	seen := make(map[string]bool)
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("task %q: malformed option %q", t.Name, f)
		}
		switch key {
		case "in", "out", "inout":
			var names []string
			for _, rn := range strings.Split(val, ",") {
				if !regions[rn] {
					return fmt.Errorf("task %q: unknown region %q", t.Name, rn)
				}
				if seen[rn] {
					return fmt.Errorf("task %q: region %q used twice", t.Name, rn)
				}
				seen[rn] = true
				names = append(names, rn)
			}
			switch key {
			case "in":
				t.In = append(t.In, names...)
			case "out":
				t.Out = append(t.Out, names...)
			default:
				t.InOut = append(t.InOut, names...)
			}
		case "flops":
			fl, err := strconv.ParseFloat(val, 64)
			if err != nil || fl < 0 || fl > 1e12 {
				return fmt.Errorf("task %q: flops %q outside [0, 1e12]", t.Name, val)
			}
			t.Flops = fl
		default:
			return fmt.Errorf("task %q: unknown option %q", t.Name, f)
		}
	}
	sp.Tasks = append(sp.Tasks, t)
	return nil
}

// specName reports whether s is a grammar-safe identifier.
func specName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// String renders the spec in canonical form: parsing the result yields
// an identical spec (the fuzz target's round-trip property).
func (sp *Spec) String() string {
	var b strings.Builder
	for _, r := range sp.Regions {
		fmt.Fprintf(&b, "region %s %d", r.Name, r.Bytes)
		if r.Owner >= 0 {
			fmt.Fprintf(&b, " owner=%d", r.Owner)
		}
		b.WriteByte('\n')
	}
	for _, t := range sp.Tasks {
		fmt.Fprintf(&b, "task %s", t.Name)
		for _, kv := range []struct {
			key   string
			names []string
		}{{"in", t.In}, {"out", t.Out}, {"inout", t.InOut}} {
			if len(kv.names) > 0 {
				fmt.Fprintf(&b, " %s=%s", kv.key, strings.Join(kv.names, ","))
			}
		}
		if t.Flops > 0 {
			fmt.Fprintf(&b, " flops=%s", strconv.FormatFloat(t.Flops, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Build materializes the spec into a runtime: regions as declared
// (owners past the worker count wrap around), tasks with synthetic
// bodies that fill every produced region with a digest of the task name
// and the input contents — deterministic, input-dependent, and
// order-sensitive, so the identity and property suites can hash the
// result.
func (sp *Spec) Build(rt *Runtime, workers int) error {
	for _, sr := range sp.Regions {
		owner := sr.Owner
		if owner >= workers {
			owner %= workers
		}
		if _, err := rt.Region(sr.Name, sr.Bytes, owner); err != nil {
			return err
		}
	}
	for _, st := range sp.Tasks {
		var accs []Access
		var produced []*Region
		for _, kv := range []struct {
			mode  AccessMode
			names []string
		}{{ModeIn, st.In}, {ModeOut, st.Out}, {ModeInOut, st.InOut}} {
			for _, rn := range kv.names {
				rg, ok := rt.RegionByName(rn)
				if !ok {
					return fmt.Errorf("taskrt spec: task %q region %q not in runtime", st.Name, rn)
				}
				accs = append(accs, Access{Region: rg, Mode: kv.mode})
				if kv.mode != ModeIn {
					produced = append(produced, rg)
				}
			}
		}
		name := st.Name
		if _, err := rt.AddTask(name, st.Flops, accs, func(tc *TaskCtx) {
			specBody(tc, name, accs, produced)
		}); err != nil {
			return err
		}
	}
	return nil
}

// specBody is the synthetic task body: digest the task name and every
// read buffer, then fill each produced buffer from the digest.
func specBody(tc *TaskCtx, name string, accs []Access, produced []*Region) {
	d := strDigest(name)
	for _, a := range accs {
		if a.Mode == ModeOut {
			continue
		}
		buf := tc.Data(a.Region)
		d ^= strDigest(a.Region.Name())
		for o := 0; o < len(buf); o += 8 {
			var w [8]byte
			copy(w[:], buf[o:])
			d = splitmix64(d ^ binary.LittleEndian.Uint64(w[:]))
		}
	}
	for _, rg := range produced {
		buf := tc.Data(rg)
		s := splitmix64(d ^ strDigest(rg.Name()))
		for o := 0; o < len(buf); o++ {
			buf[o] = byte(splitmix64(s + uint64(o)))
		}
	}
}

// strDigest folds a string into a splitmix state.
func strDigest(s string) uint64 {
	d := uint64(len(s))
	for i := 0; i < len(s); i++ {
		d = splitmix64(d ^ uint64(s[i])<<((i%8)*8))
	}
	return d
}
