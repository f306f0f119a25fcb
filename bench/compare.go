package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// baselineJSON is the result file of the run whose numbers README.md
// quotes: the sim_digest of every workload and the host they were
// measured on.
//
//go:embed baseline.json
var baselineJSON []byte

// recordedNote says whether a run reproduced the recorded sim_digest.
// Digests are recorded for one seed; other seeds have nothing to match.
func recordedNote(r *workloadResult) string {
	var base results
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return "  (baseline.json unreadable: " + err.Error() + ")"
	}
	rec, ok := base.Workloads[r.Workload]
	switch {
	case !ok || rec.Seed != r.Seed:
		return "  (no digest recorded for this seed)"
	case rec.SimDigest == r.SimDigest:
		return "  (as recorded in bench/baseline.json)"
	}
	return "  (DIFFERS from bench/baseline.json: " + rec.SimDigest + ")"
}

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies metric m's bound and direction to a parent value a and
// a changed value b. The change is worse when its median is worse than
// the parent's by more than the bound. Otherwise, when either side's
// own spread (range over median) is wider than the bound, the pair is
// unresolved — unless every sample of b is better than every sample of
// a — and else it is ok.
func judge(m metric, a, b value) verdict {
	sign := 1.0 // positive delta = worse
	if m.better == "higher" {
		sign = -1
	}
	limit := m.bound
	if !m.absolute {
		limit *= math.Abs(a.Median)
	}
	if sign*(b.Median-a.Median) > limit {
		return worse
	}
	if a.Max-a.Min > limit || b.Max-b.Min > limit {
		allBetter := sign*(b.Max-a.Min) < 0 && sign*(b.Min-a.Max) < 0
		if !allBetter {
			return unresolved
		}
	}
	return ok
}

// compareFiles prints one row per (workload, metric) of two result
// files and reports whether any row is worse or any sim_digest differs.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		return false, fmt.Errorf("seeds differ: %s has %d, %s has %d", pathA, a.Seed, pathB, b.Seed)
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, name := range workloadNames() {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "%-16s %-16s %14.12s %14.12s %9s  %s\n", name, "sim_digest", ra.SimDigest, rb.SimDigest, "", "MISMATCH")
			bad = true
		}
		for _, m := range endToEnd() {
			va, okA := ra.EndToEnd[m.name]
			vb, okB := rb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v := judge(m, va, vb)
			change := "-"
			if va.Median != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(vb.Median-va.Median)/va.Median)
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %9s  %s\n", name, m.name, va.Median, vb.Median, change, v)
			if v == worse {
				bad = true
			}
		}
	}
	return bad, nil
}
