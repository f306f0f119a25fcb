package main

import (
	"os"
	"path/filepath"
	"testing"
)

// load merges the trace files, failing the test on a read error.
func load(t *testing.T, paths ...string) []taggedEvent {
	t.Helper()
	events, err := loadMerged(paths)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// col reads the ledger column headed head.
func col(l *devLedger, head string) int64 {
	for i, c := range ledgerColumns {
		if c.head == head {
			return l[i]
		}
	}
	panic("no ledger column " + head)
}

// writeTrace drops a minimal Chrome trace-event file and returns its path.
func writeTrace(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const ledgerA = `{"traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"run/metrics"}},
{"ph":"C","pid":1,"ts":10,"name":"fault.inject.devcrash.d1","args":{"value":1}},
{"ph":"C","pid":1,"ts":20,"name":"ckpt.take.d1","args":{"value":1}},
{"ph":"C","pid":1,"ts":90,"name":"ckpt.take.d1","args":{"value":3}},
{"ph":"C","pid":1,"ts":95,"name":"replay.writes.d1","args":{"value":10}},
{"ph":"C","pid":1,"ts":95,"name":"replay.bytes.d1","args":{"value":640}},
{"ph":"C","pid":1,"ts":99,"name":"fault.recover.rejoin.d1","args":{"value":1}},
{"ph":"C","pid":1,"ts":99,"name":"sched.requeued.d1","args":{"value":2}},
{"ph":"C","pid":1,"ts":99,"name":"sched.retry_exhausted.d1","args":{"value":1}},
{"ph":"C","pid":1,"ts":99,"name":"taskrt.reexec.d1","args":{"value":4}}
]}`

const ledgerB = `{"traceEvents":[
{"ph":"M","pid":7,"name":"process_name","args":{"name":"other/metrics"}},
{"ph":"C","pid":7,"ts":40,"name":"ckpt.take.d1","args":{"value":2}},
{"ph":"C","pid":7,"ts":50,"name":"ckpt.take.d2","args":{"value":5}}
]}`

// The same device ledger arriving through two merged files — the same
// capture listed twice, or a merged export next to one of its sources —
// must be counted once, not summed.
func TestRecoveryLedgerDedupesAcrossFiles(t *testing.T) {
	a := writeTrace(t, "a.json", ledgerA)

	once := recoveryLedgers(load(t, a))
	l1 := once[1]
	if l1 == nil {
		t.Fatal("no ledger for device 1")
	}
	// Last counter sample wins within a file: ckpt.take.d1 ends at 3.
	if col(l1, "ckpt") != 3 || col(l1, "crash") != 1 || col(l1, "jrn.wr") != 10 || col(l1, "jrn.bytes") != 640 {
		t.Fatalf("single-file ledger wrong: %+v", *l1)
	}
	if col(l1, "injected") != 1 || col(l1, "recovered") != 1 {
		t.Fatalf("inject/recover rollup wrong: %+v", *l1)
	}
	if col(l1, "requeued") != 2 || col(l1, "exhaust") != 1 || col(l1, "reexec") != 4 {
		t.Fatalf("job-recovery columns wrong: %+v", *l1)
	}

	twice := recoveryLedgers(load(t, a, a))
	if got := twice[1]; *got != *l1 {
		t.Fatalf("duplicate file double-counted: %+v vs %+v", *got, *l1)
	}
}

// Distinct ledgers for the same device (different captures of one run)
// still sum, and devices only present in one file keep their tally.
func TestRecoveryLedgerSumsDistinctFiles(t *testing.T) {
	a := writeTrace(t, "a.json", ledgerA)
	b := writeTrace(t, "b.json", ledgerB)

	got := recoveryLedgers(load(t, a, b))
	if c := col(got[1], "ckpt"); c != 3+2 {
		t.Fatalf("device 1 checkpoints = %d, want 5", c)
	}
	if c := col(got[2], "ckpt"); c != 5 {
		t.Fatalf("device 2 checkpoints = %d, want 5", c)
	}
	if col(got[1], "requeued") != 2 || col(got[1], "exhaust") != 1 || col(got[1], "reexec") != 4 {
		t.Fatalf("job-recovery columns lost in the sum: %+v", *got[1])
	}
}

const tenantTrace = `{"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"vsccd/sched"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"t002"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"t013"}},
{"ph":"X","pid":0,"tid":1,"ts":100,"dur":50,"name":"job pp-a"},
{"ph":"X","pid":0,"tid":2,"ts":120,"dur":30,"name":"job pp-b"},
{"ph":"i","pid":0,"tid":1,"ts":160,"s":"t","name":"admit"},
{"ph":"C","pid":0,"ts":200,"name":"qos.bytes.t002","args":{"value":4096}},
{"ph":"C","pid":0,"ts":200,"name":"qos.bytes.t013","args":{"value":512}},
{"ph":"C","pid":0,"ts":200,"name":"sched.admitted","args":{"value":2}}
]}`

func TestFilterTenant(t *testing.T) {
	path := writeTrace(t, "mt.json", tenantTrace)
	events := filterTenant(load(t, path), 2)

	var spans, instants, counters, threads, processes int
	for _, te := range events {
		switch te.Ph {
		case "X":
			spans++
			if te.Tid != 1 {
				t.Fatalf("span on foreign track tid=%d kept", te.Tid)
			}
		case "i":
			instants++
		case "C":
			counters++
			if te.Name != "qos.bytes.t002" {
				t.Fatalf("foreign counter %q kept", te.Name)
			}
		case "M":
			if te.Name == "process_name" {
				processes++
			} else {
				threads++
				// t013 must not match tenant 2's tag as a prefix.
				if te.Args.Name != "t002" {
					t.Fatalf("foreign thread %q kept", te.Args.Name)
				}
			}
		}
	}
	if spans != 1 || instants != 1 || counters != 1 || threads != 1 || processes != 1 {
		t.Fatalf("filter kept spans=%d instants=%d counters=%d threads=%d processes=%d",
			spans, instants, counters, threads, processes)
	}
}
