package chaos

import (
	"runtime"
	"strings"
	"testing"

	"vscc/internal/fault"
)

// TestFaultTokensParse: every token the generator can emit must be a
// valid ParseSpec input, and a rendered schedule must round-trip into
// the matching fault lists.
func TestFaultTokensParse(t *testing.T) {
	faults := []Fault{
		{Site: "devcrash", Dev: 1, At: 40_000, Dur: 250_000},
		{Site: "devlinkdown", Dev: 0, At: 120_000, Dur: 350_000},
		{Site: "stall", At: 460_000, Dur: 20_000},
		{Site: "devcrash", Dev: 0, At: 300_000, Dur: 150_000},
	}
	spec := Spec("seed=3,ckpt=50000", faults)
	want := "seed=3,ckpt=50000,devcrash=40000:1:250000,devlinkdown=120000:0:350000,stall=460000:20000,devcrash=300000:0:150000"
	if spec != want {
		t.Fatalf("Spec rendered %q, want %q", spec, want)
	}
	cfg, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("generated spec does not parse: %v", err)
	}
	if len(cfg.DevCrashAt) != 2 || len(cfg.DevLinkDownAt) != 1 || len(cfg.StallAt) != 1 {
		t.Errorf("round-trip lost faults: crash=%d linkdown=%d stall=%d",
			len(cfg.DevCrashAt), len(cfg.DevLinkDownAt), len(cfg.StallAt))
	}
}

// TestGenerateDeterministic: the walk is a pure function of the seed,
// every point is derivable in isolation, and every generated token
// parses.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := PointSchedule(42, i, 2, 4), PointSchedule(42, i, 2, 4)
		if Spec("", a.Faults) != Spec("", b.Faults) {
			t.Fatalf("point %d differs across identical walks", i)
		}
		if len(a.Faults) < 1 || len(a.Faults) > 4 {
			t.Fatalf("point %d has %d faults, want 1..4", i, len(a.Faults))
		}
		if _, err := fault.ParseSpec(Spec("seed=1", a.Faults)); err != nil {
			t.Fatalf("point %d does not parse: %v", i, err)
		}
	}
	if Spec("", PointSchedule(43, 0, 2, 4).Faults) == Spec("", PointSchedule(42, 0, 2, 4).Faults) {
		t.Error("different seeds produced identical first points")
	}
}

// TestCampaignShortClean is the blocking-CI campaign: a short seeded
// walk over both real targets must be violation-free.
func TestCampaignShortClean(t *testing.T) {
	before := runtime.NumGoroutine()
	c := &Campaign{Seed: 1, N: 16, Targets: DefaultTargets()}
	n, v := c.Run()
	if v != nil {
		t.Fatalf("violation at point %d:\n%s", n, v.Error())
	}
	if n != 16 {
		t.Errorf("campaign walked %d points, want 16", n)
	}
	// Every point closes its kernels, so the walk leaves no process
	// goroutine behind (each point used to leave four parked for good,
	// and campaigns sharing a process slowed down as they piled up). A
	// closed kernel's processes have handed back their last token but
	// may still be returning.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the campaign, %d after", before, after)
	}
}

// TestCampaignNightlyDepth is the nightly depth at test granularity;
// the walk overlaps the CLI campaign's prefix. Skipped under -short.
func TestCampaignNightlyDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("deep campaign: run without -short or via cmd/chaos")
	}
	c := &Campaign{Seed: 1, N: 200, Targets: DefaultTargets()}
	if n, v := c.Run(); v != nil {
		t.Fatalf("violation at point %d:\n%s", n, v.Error())
	}
}

// plantedTarget fails whenever the spec carries both a devcrash and a
// devlinkdown token — a synthetic 2-fault invariant violation whose
// minimal reproducer is exactly one fault of each site.
func plantedTarget() Target {
	return Target{
		Name: "planted",
		Base: "seed=9",
		Run: func(spec string) (string, []string) {
			if strings.Contains(spec, "devcrash=") && strings.Contains(spec, "devlinkdown=") {
				return "", []string{"planted: crash and linkdown present together"}
			}
			return "clean", nil
		},
	}
}

// TestPlantedViolationShrinks: a many-fault failing schedule must
// shrink to a <=2-fault reproducer that still fails and is 1-minimal.
func TestPlantedViolationShrinks(t *testing.T) {
	planted := plantedTarget()
	faults := []Fault{
		{Site: "stall", At: 20_000, Dur: 10_000},
		{Site: "devcrash", Dev: 0, At: 40_000, Dur: 100_000},
		{Site: "stall", At: 60_000, Dur: 10_000},
		{Site: "devcrash", Dev: 1, At: 80_000, Dur: 100_000},
		{Site: "devlinkdown", Dev: 0, At: 100_000, Dur: 100_000},
		{Site: "devlinkdown", Dev: 1, At: 120_000, Dur: 100_000},
		{Site: "stall", At: 140_000, Dur: 10_000},
	}
	failing := func(f []Fault) bool {
		_, p := check(planted, f)
		return len(p) > 0
	}
	if !failing(faults) {
		t.Fatal("planted schedule does not fail before shrinking")
	}
	min := Shrink(faults, failing)
	if len(min) > 2 {
		t.Fatalf("shrunk to %d faults (%s), want <=2", len(min), Spec("", min))
	}
	if !failing(min) {
		t.Fatal("minimized schedule no longer fails")
	}
	for i := range min {
		reduced := append(append([]Fault(nil), min[:i]...), min[i+1:]...)
		if failing(reduced) {
			t.Errorf("minimized schedule is not 1-minimal: fault %d is removable", i)
		}
	}
}

// TestCampaignReportsShrunkViolation drives the full campaign path over
// the planted target: the walk must stop at the first failing point and
// hand back a violation whose minimized spec is a verbatim reproducer.
func TestCampaignReportsShrunkViolation(t *testing.T) {
	planted := plantedTarget()
	c := &Campaign{Seed: 7, N: 400, Targets: []Target{planted}, Log: func(string, ...any) {}}
	n, v := c.Run()
	if v == nil {
		t.Fatal("no generated point carried both a devcrash and a devlinkdown; campaign found nothing")
	}
	if v.Index != n || v.Target != "planted" || v.Seed != 7 {
		t.Errorf("violation metadata = {target=%s seed=%d index=%d}, walk stopped at %d",
			v.Target, v.Seed, v.Index, n)
	}
	if len(v.Minimized) > 2 {
		t.Errorf("campaign minimized to %d faults, want <=2: %s", len(v.Minimized), v.MinSpec)
	}
	if v.MinSpec != Spec(planted.Base, v.Minimized) {
		t.Errorf("MinSpec %q does not render Minimized verbatim", v.MinSpec)
	}
	if _, p := check(planted, v.Minimized); len(p) == 0 {
		t.Error("minimized reproducer does not reproduce")
	}
	report := v.Error()
	for _, want := range []string{"minimized reproducer", v.MinSpec, "planted: crash and linkdown"} {
		if !strings.Contains(report, want) {
			t.Errorf("violation report missing %q:\n%s", want, report)
		}
	}
}

// TestCampaignFlagsNondeterminism: a target whose digest changes across
// the paired reruns must be reported as a determinism violation.
func TestCampaignFlagsNondeterminism(t *testing.T) {
	calls := 0
	flappy := Target{Name: "flappy", Base: "seed=1", Run: func(string) (string, []string) {
		calls++
		if calls%2 == 0 {
			return "digest-b", nil
		}
		return "digest-a", nil
	}}
	_, v := (&Campaign{Seed: 1, N: 1, Targets: []Target{flappy}}).Run()
	if v == nil {
		t.Fatal("digest divergence not flagged")
	}
	if !strings.Contains(strings.Join(v.Problems, " "), "rerun digest diverged") {
		t.Errorf("unexpected problems: %v", v.Problems)
	}
}

// TestTargetBasesAreClean: both real targets must pass on their base
// specs alone — the campaign's invariants hold with zero faults.
func TestTargetBasesAreClean(t *testing.T) {
	for _, tgt := range DefaultTargets() {
		if _, problems := tgt.Run(tgt.Base); len(problems) > 0 {
			t.Errorf("target %s fails its own base spec: %v", tgt.Name, problems)
		}
	}
}
