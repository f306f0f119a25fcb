package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// newTestRig builds a 2-device VDMA system with a scheduler over it.
func newTestRig(t *testing.T, opts Options) (*sim.Kernel, *vscc.System, *Scheduler, *trace.Sink) {
	t.Helper()
	k := sim.NewKernel()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewSink(k)
	sys.Instrument(sink)
	return k, sys, New(sys, sink, opts), sink
}

func addTenants(t *testing.T, s *Scheduler, specs ...TenantSpec) {
	t.Helper()
	for _, ts := range specs {
		if err := s.AddTenant(ts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionOrderDeterministic drives a same-cycle burst of jobs from
// three tenants twice and checks the admission order is (submit, tenant,
// spec position) both times, byte-identical in every reported cycle.
func TestAdmissionOrderDeterministic(t *testing.T) {
	run := func() []Result {
		k, _, s, _ := newTestRig(t, Options{})
		addTenants(t, s, TenantSpec{ID: 3}, TenantSpec{ID: 1}, TenantSpec{ID: 2})
		jobs := []JobSpec{
			// Deliberately out of tenant order; same submit cycle.
			{Tenant: 3, Name: "c", Submit: 100, Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeVDMA, Size: 64, Reps: 1},
			{Tenant: 1, Name: "a", Submit: 100, Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeVDMA, Size: 64, Reps: 1},
			{Tenant: 2, Name: "b", Submit: 100, Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeVDMA, Size: 64, Reps: 1},
			{Tenant: 2, Name: "later", Submit: 50, Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeVDMA, Size: 64, Reps: 1},
		}
		if err := s.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Results()
	}
	first := run()
	wantOrder := []string{"later", "a", "b", "c"}
	for i, want := range wantOrder {
		if first[i].Spec.Name != want {
			t.Fatalf("arrival order[%d] = %q, want %q", i, first[i].Spec.Name, want)
		}
		if first[i].Status != StatusOK {
			t.Fatalf("job %q finished %v (%v)", first[i].Spec.Name, first[i].Status, first[i].Err)
		}
		if first[i].Admit != first[i].Submit {
			t.Errorf("job %q admitted at %d, submitted at %d (machine was empty)",
				first[i].Spec.Name, first[i].Admit, first[i].Submit)
		}
	}
	second := run()
	for i := range first {
		a, b := first[i], second[i]
		if a.Spec.Name != b.Spec.Name || a.Admit != b.Admit || a.Done != b.Done || a.Status != b.Status {
			t.Errorf("rerun diverged at job %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestCapacityRejection is the table-driven exhaustion matrix: jobs that
// can never fit must be rejected at submit with a cycle-stamped error.
func TestCapacityRejection(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		job  JobSpec
		want string
	}{
		{
			name: "more ranks than cores",
			opts: Options{},
			job:  JobSpec{Tenant: 1, Name: "big", Submit: 7, Kind: KindTraffic, Ranks: 97, Scheme: vscc.SchemeVDMA},
			want: "exceeds the machine's 96 cores",
		},
		{
			name: "lut partition too small for a spanning job",
			opts: Options{LUTSlotsPerDevice: -1}, // negative: zero inter-device slots
			job:  JobSpec{Tenant: 1, Name: "span", Submit: 7, Kind: KindTraffic, Ranks: 60, Scheme: vscc.SchemeVDMA},
			want: "LUT slots",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, _, s, _ := newTestRig(t, tc.opts)
			addTenants(t, s, TenantSpec{ID: 1})
			if err := s.Submit([]JobSpec{tc.job}); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			res := s.Results()[0]
			if res.Status != StatusRejected {
				t.Fatalf("status = %v, want rejected (err %v)", res.Status, res.Err)
			}
			if want := fmt.Sprintf("cycle %d", tc.job.Submit); !strings.Contains(res.Err.Error(), want) {
				t.Errorf("rejection not cycle-stamped with %q: %v", want, res.Err)
			}
			if !strings.Contains(res.Err.Error(), tc.want) {
				t.Errorf("rejection reason missing %q: %v", tc.want, res.Err)
			}
		})
	}
}

// TestQueueingAndTeardown fills the whole machine, queues a second job
// behind it, and checks (a) the queued job only starts once the first
// finishes and (b) teardown returns every core, LUT slot and MPB byte.
func TestQueueingAndTeardown(t *testing.T) {
	k, _, s, _ := newTestRig(t, Options{})
	addTenants(t, s, TenantSpec{ID: 1}, TenantSpec{ID: 2})
	before := s.Capacity()
	jobs := []JobSpec{
		{Tenant: 1, Name: "hog", Submit: 0, Kind: KindTraffic, Ranks: 96, Scheme: vscc.SchemeVDMA, Size: 32, Reps: 1},
		{Tenant: 2, Name: "queued", Submit: 1, Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeCachedGet, Size: 32, Reps: 1},
	}
	if err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	res := s.Results()
	for _, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("job %q finished %v (%v)", r.Spec.Name, r.Status, r.Err)
		}
	}
	hog, queued := res[0], res[1]
	if queued.Admit < hog.Done {
		t.Errorf("queued job admitted at %d before the hog finished at %d", queued.Admit, hog.Done)
	}
	after := s.Capacity()
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("teardown did not restore capacity:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.MPBBytesInUse != 0 {
		t.Errorf("MPB still in use after teardown: %d bytes", after.MPBBytesInUse)
	}
}

// TestTenantValidation covers the registration error paths.
func TestTenantValidation(t *testing.T) {
	_, _, s, _ := newTestRig(t, Options{CacheLines: 100})
	if err := s.AddTenant(TenantSpec{ID: 1, CacheLines: 80}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(TenantSpec{ID: 1}); err == nil {
		t.Error("duplicate tenant registration accepted")
	}
	if err := s.AddTenant(TenantSpec{ID: 2, CacheLines: 40}); err == nil {
		t.Error("cache partition overcommit accepted")
	}
	if err := s.AddTenant(TenantSpec{ID: 2, CacheLines: 20}); err != nil {
		t.Errorf("fitting tenant rejected: %v", err)
	}
	if got := s.Capacity().FreeCacheLines; got != 0 {
		t.Errorf("cache pool = %d lines free, want 0", got)
	}
	for _, ts := range []TenantSpec{
		{ID: 3, BWBytesPerCycle: 0.0001},
		{ID: 3, BWBytesPerCycle: math.NaN()},
		{ID: 3, BWBytesPerCycle: math.Inf(1)},
		{ID: 3, BWBytesPerCycle: -1},
		{ID: 3, BWBytesPerCycle: 0.5, BurstBytes: -5},
	} {
		if err := s.AddTenant(ts); err == nil {
			t.Errorf("tenant %+v accepted", ts)
		}
	}
}

// TestSubmitValidation covers the spec error paths that reject the whole
// workload before the clock starts.
func TestSubmitValidation(t *testing.T) {
	cases := []struct {
		name string
		job  JobSpec
		want string
	}{
		{"unknown tenant", JobSpec{Tenant: 9, Name: "x", Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeVDMA}, "unknown tenant"},
		{"zero ranks", JobSpec{Tenant: 1, Name: "x", Kind: KindPingPong, Scheme: vscc.SchemeVDMA}, "ranks"},
		{"ack mismatch", JobSpec{Tenant: 1, Name: "x", Kind: KindPingPong, Ranks: 2, Scheme: vscc.SchemeRouting}, "cannot share a fabric"},
		{"unknown kind", JobSpec{Tenant: 1, Name: "x", Kind: "warp", Ranks: 2, Scheme: vscc.SchemeVDMA}, "unknown job kind"},
		{"bt needs square", JobSpec{Tenant: 1, Name: "x", Kind: KindBT, Ranks: 3, Scheme: vscc.SchemeVDMA}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, s, _ := newTestRig(t, Options{})
			addTenants(t, s, TenantSpec{ID: 1})
			err := s.Submit([]JobSpec{tc.job})
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWorkloadParser round-trips the file format and its error paths.
func TestWorkloadParser(t *testing.T) {
	src := `
# tenants first
tenant id=1 bw=0.5 burst=2048 cache=64
tenant id=2

job tenant=1 name=pp submit=0 kind=pingpong ranks=2 scheme=vdma size=256 reps=3
job tenant=2 name=bt submit=10 kind=bt ranks=4 scheme=cached-get class=S iters=1
`
	w, err := ParseWorkload(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tenants) != 2 || len(w.Jobs) != 2 {
		t.Fatalf("parsed %d tenants, %d jobs", len(w.Tenants), len(w.Jobs))
	}
	if w.Tenants[0].BWBytesPerCycle != 0.5 || w.Tenants[0].BurstBytes != 2048 || w.Tenants[0].CacheLines != 64 {
		t.Errorf("tenant 1 mis-parsed: %+v", w.Tenants[0])
	}
	bt := w.Jobs[1]
	if bt.Kind != KindBT || bt.Scheme != vscc.SchemeCachedGet || bt.Submit != 10 || bt.Class != "S" || bt.Iters != 1 {
		t.Errorf("bt job mis-parsed: %+v", bt)
	}
	bad := []struct {
		name, src, want string
	}{
		{"undeclared tenant", "job tenant=1 name=x", "undeclared tenant"},
		{"unknown record", "banana id=1", "unknown record"},
		{"unknown scheme", "tenant id=1\njob tenant=1 name=x scheme=warp", "unknown scheme"},
		{"unknown key", "tenant id=1 color=red", `unknown key "color"`},
		{"duplicate key", "tenant id=1 id=2", "duplicate key"},
		{"no jobs", "tenant id=1", "no jobs"},
		{"bw rounds to zero", "# caps\ntenant id=1 bw=0.0001", "line 2: tenant 1 bw=0.0001: rate 0.0001 is not"},
		{"bw NaN", "tenant id=1 bw=NaN", "line 1: tenant 1 bw=NaN"},
		{"bw Inf", "tenant id=1 bw=+Inf", "line 1: tenant 1 bw=+Inf"},
		{"bw negative", "tenant id=1 bw=-0.5", "line 1: tenant 1 bw=-0.5"},
		{"negative burst", "tenant id=1 bw=0.5 burst=-5", "line 1: tenant 1 has a negative QoS parameter"},
		{"negative cache", "tenant id=1 cache=-1", "line 1: tenant 1 has a negative QoS parameter"},
		{"negative devretry", "tenant id=1 devretry=-1", "line 1: tenant 1 has a negative QoS parameter"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseWorkload(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSchedulerReusesCoresAcrossSchemes admits jobs with different (but
// ack-compatible) schemes back to back on the same cores: region
// teardown must leave the host table clean enough for re-registration.
func TestSchedulerReusesCoresAcrossSchemes(t *testing.T) {
	k, _, s, _ := newTestRig(t, Options{})
	addTenants(t, s, TenantSpec{ID: 1})
	var jobs []JobSpec
	schemes := []vscc.Scheme{vscc.SchemeVDMA, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeHostRouted}
	for i, scheme := range schemes {
		jobs = append(jobs, JobSpec{
			Tenant: 1, Name: fmt.Sprintf("j%d", i), Submit: sim.Cycles(i),
			Kind: KindTraffic, Ranks: 96, Scheme: scheme, Size: 64, Reps: 1,
		})
	}
	if err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var prevDone sim.Cycles
	for _, r := range s.Results() {
		if r.Status != StatusOK {
			t.Fatalf("job %q finished %v (%v)", r.Spec.Name, r.Status, r.Err)
		}
		if r.Admit < prevDone {
			t.Errorf("job %q overlapped its predecessor (admit %d < prev done %d)", r.Spec.Name, r.Admit, prevDone)
		}
		prevDone = r.Done
	}
}

var _ = rcce.MaxRanks // keep the import honest if assertions above change
