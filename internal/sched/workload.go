package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// Workload is a parsed workload file: tenant descriptors plus job specs
// in file order.
type Workload struct {
	Tenants []TenantSpec
	Jobs    []JobSpec
}

// ParseWorkload reads the line-based workload format:
//
//	# comment
//	tenant id=1 bw=0.05 burst=4096 cache=64
//	job tenant=1 name=pp-a submit=0 kind=pingpong ranks=2 scheme=vdma size=1024 reps=4
//	job tenant=1 name=bt-a submit=1000 kind=bt ranks=4 scheme=cached-get class=S iters=2
//
// Every record is one line of space-separated key=value fields; tenants
// must be declared before their jobs.
func ParseWorkload(r io.Reader) (*Workload, error) {
	w := &Workload{}
	seen := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kv, err := parseKV(fields[1:])
		if err != nil {
			return nil, fmt.Errorf("workload line %d: %w", lineNo, err)
		}
		switch fields[0] {
		case "tenant":
			ts, err := parseTenant(kv)
			if err != nil {
				return nil, fmt.Errorf("workload line %d: %w", lineNo, err)
			}
			if seen[ts.ID] {
				return nil, fmt.Errorf("workload line %d: tenant %d declared twice", lineNo, ts.ID)
			}
			seen[ts.ID] = true
			w.Tenants = append(w.Tenants, ts)
		case "job":
			js, err := parseJob(kv)
			if err != nil {
				return nil, fmt.Errorf("workload line %d: %w", lineNo, err)
			}
			if !seen[js.Tenant] {
				return nil, fmt.Errorf("workload line %d: job %q references undeclared tenant %d",
					lineNo, js.Name, js.Tenant)
			}
			w.Jobs = append(w.Jobs, js)
		default:
			return nil, fmt.Errorf("workload line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(w.Jobs) == 0 {
		return nil, fmt.Errorf("workload has no jobs")
	}
	return w, nil
}

type kvMap struct {
	m    map[string]string
	used map[string]bool
}

func parseKV(fields []string) (*kvMap, error) {
	kv := &kvMap{m: map[string]string{}, used: map[string]bool{}}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		if _, dup := kv.m[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		kv.m[k] = v
	}
	return kv, nil
}

func (kv *kvMap) str(key, def string) string {
	if v, ok := kv.m[key]; ok {
		kv.used[key] = true
		return v
	}
	return def
}

func (kv *kvMap) integer(key string, def int) (int, error) {
	v, ok := kv.m[key]
	if !ok {
		return def, nil
	}
	kv.used[key] = true
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not an integer", key, v)
	}
	return n, nil
}

func (kv *kvMap) float(key string, def float64) (float64, error) {
	v, ok := kv.m[key]
	if !ok {
		return def, nil
	}
	kv.used[key] = true
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not a number", key, v)
	}
	return f, nil
}

// leftover reports the keys no parser consumed, sorted so the error is
// deterministic.
func (kv *kvMap) leftover() error {
	var unknown []string
	for k := range kv.m {
		if !kv.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("unknown key %q", unknown[0])
}

func parseTenant(kv *kvMap) (TenantSpec, error) {
	var ts TenantSpec
	var err error
	if ts.ID, err = kv.integer("id", -1); err != nil {
		return ts, err
	}
	if ts.ID < 0 {
		return ts, fmt.Errorf("tenant record needs id=N")
	}
	if ts.BWBytesPerCycle, err = kv.float("bw", 0); err != nil {
		return ts, err
	}
	if ts.BurstBytes, err = kv.integer("burst", 0); err != nil {
		return ts, err
	}
	if ts.CacheLines, err = kv.integer("cache", 0); err != nil {
		return ts, err
	}
	if ts.DevRetry, err = kv.integer("devretry", 0); err != nil {
		return ts, err
	}
	if err := ts.validate(); err != nil {
		return ts, err
	}
	return ts, kv.leftover()
}

func parseJob(kv *kvMap) (JobSpec, error) {
	var js JobSpec
	var err error
	if js.Tenant, err = kv.integer("tenant", -1); err != nil {
		return js, err
	}
	if js.Tenant < 0 {
		return js, fmt.Errorf("job record needs tenant=N")
	}
	js.Name = kv.str("name", "")
	if js.Name == "" {
		return js, fmt.Errorf("job record needs name=...")
	}
	submit, err := kv.integer("submit", 0)
	if err != nil {
		return js, err
	}
	if submit < 0 {
		return js, fmt.Errorf("submit=%d is negative", submit)
	}
	js.Submit = sim.Cycles(submit)
	js.Kind = Kind(kv.str("kind", string(KindPingPong)))
	if js.Ranks, err = kv.integer("ranks", 0); err != nil {
		return js, err
	}
	key := kv.str("scheme", "vdma")
	scheme, ok := vscc.SchemeByKey(key)
	if !ok {
		return js, fmt.Errorf("unknown scheme %q", key)
	}
	js.Scheme = scheme
	if js.Size, err = kv.integer("size", 0); err != nil {
		return js, err
	}
	if js.Reps, err = kv.integer("reps", 0); err != nil {
		return js, err
	}
	js.Class = kv.str("class", "")
	if js.Iters, err = kv.integer("iters", 0); err != nil {
		return js, err
	}
	return js, kv.leftover()
}
