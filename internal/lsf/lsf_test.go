package lsf

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/simgrid"
)

var t0 = time.Date(1998, 11, 11, 0, 0, 0, 0, time.UTC)

func TestJobDispatchesAndFinishes(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 4})
	if err := c.Submit(JobSpec{ID: "j1", StartupSleep: 5 * time.Second, RunFor: time.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	st, ok := c.State("j1")
	if !ok || st != Finished {
		t.Fatalf("state = %v, %v", st, ok)
	}
}

// The paper's anecdote: a long randomized start-up sleep makes LSF think
// the process is dead and reclaim the node.
func TestLongStartupSleepGetsReclaimed(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 4, IdleKillAfter: 90 * time.Second, MonitorPeriod: 30 * time.Second})
	if err := c.Submit(JobSpec{ID: "sleepy", StartupSleep: 10 * time.Minute, RunFor: time.Hour}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	st, _ := c.State("sleepy")
	if st != Reclaimed {
		t.Fatalf("state = %v, want reclaimed (LSF interprets idle as dead)", st)
	}
	_, reclaims, _, _ := c.Stats()
	if reclaims != 1 {
		t.Fatalf("reclaims = %d", reclaims)
	}
}

// The fix the team deployed: reduce the sleep below the idle threshold.
func TestShortStartupSleepSurvives(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 4, IdleKillAfter: 90 * time.Second, MonitorPeriod: 30 * time.Second})
	if err := c.Submit(JobSpec{ID: "quick", StartupSleep: 20 * time.Second, RunFor: 30 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	st, _ := c.State("quick")
	if st != Finished {
		t.Fatalf("state = %v, want finished", st)
	}
}

func TestQueueingBeyondCapacity(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 2})
	for i := 0; i < 5; i++ {
		if err := c.Submit(JobSpec{ID: fmt.Sprintf("j%d", i), RunFor: 10 * time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, queued, running := c.Stats()
	if running != 2 || queued != 3 {
		t.Fatalf("running=%d queued=%d", running, queued)
	}
	// After enough time, everyone has cycled through.
	eng.Run(t0.Add(2 * time.Hour))
	for _, id := range c.JobIDs() {
		if st, _ := c.State(id); st != Finished {
			t.Fatalf("%s = %v", id, st)
		}
	}
}

func TestReclaimedNodeIsReused(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 1, IdleKillAfter: time.Minute, MonitorPeriod: 30 * time.Second})
	if err := c.Submit(JobSpec{ID: "dead", StartupSleep: time.Hour, RunFor: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobSpec{ID: "next", StartupSleep: time.Second, RunFor: 10 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(3 * time.Hour))
	if st, _ := c.State("dead"); st != Reclaimed {
		t.Fatalf("dead = %v", st)
	}
	if st, _ := c.State("next"); st != Finished {
		t.Fatalf("next = %v; reclaimed node never freed", st)
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 1})
	if err := c.Submit(JobSpec{ID: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobSpec{ID: "d"}); err == nil {
		t.Fatal("duplicate must fail")
	}
}

func TestForeverJobKeepsNode(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{Nodes: 1})
	if err := c.Submit(JobSpec{ID: "daemon", StartupSleep: time.Second}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(6 * time.Hour))
	st, _ := c.State("daemon")
	if st != Running {
		t.Fatalf("state = %v, want running forever", st)
	}
}

func TestUnknownJobState(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	c := NewCluster(eng, ClusterConfig{})
	if _, ok := c.State("ghost"); ok {
		t.Fatal("unknown job must report !ok")
	}
}

func TestJobStateString(t *testing.T) {
	for s, want := range map[JobState]string{
		Queued: "queued", Running: "running", Reclaimed: "reclaimed", Finished: "finished", 0: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("JobState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
