package sim

import (
	"strings"
	"testing"
)

func TestDaemonDoesNotDeadlockRun(t *testing.T) {
	k := NewKernel()
	q := newWorkQueue(k, "work")
	served := 0
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Pop(p)
			served++
		}
	})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Delay(10)
			q.Push(i)
		}
		p.Delay(10)
	})
	// The daemon stays blocked on the empty queue at the end; Run must
	// still return cleanly.
	if err := k.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	if served != 5 {
		t.Errorf("served = %d, want 5", served)
	}
}

func TestDaemonDoesNotMaskRealDeadlock(t *testing.T) {
	k := NewKernel()
	k.SpawnDaemon("idle", func(p *Proc) {
		NewCond(k, "never").Wait(p)
	})
	c := NewCond(k, "stuck")
	k.Spawn("victim", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("real deadlock not reported")
	}
	if !strings.Contains(err.Error(), "victim") {
		t.Errorf("report %q does not name the victim", err)
	}
	if strings.Contains(err.Error(), "idle") {
		t.Errorf("report %q names the daemon", err)
	}
}

func TestDaemonTerminationIsClean(t *testing.T) {
	k := NewKernel()
	ran := false
	k.SpawnDaemon("oneshot", func(p *Proc) {
		p.Delay(5)
		ran = true
	})
	k.Spawn("main", func(p *Proc) { p.Delay(100) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("daemon body never ran")
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	k := NewKernel()
	if err := k.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 500 {
		t.Errorf("idle RunUntil left clock at %d, want 500", k.Now())
	}
}
