package condor

import (
	"sync/atomic"
	"testing"
	"time"

	"everyware/internal/simgrid"
)

var t0 = time.Date(1998, 11, 11, 23, 36, 56, 0, time.UTC)

func TestJobsGetPlacedOnIdleWorkstations(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 1, Workstations: 8})
	var starts atomic.Int32
	for i := 0; i < 4; i++ {
		id := string(rune('a' + i))
		if err := pool.Submit(id, JobCallbacks{
			OnStart: func(ws string) {
				if ws == "" {
					t.Error("empty workstation name")
				}
				starts.Add(1)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(t0.Add(4 * time.Hour))
	if starts.Load() == 0 {
		t.Fatal("no job ever placed")
	}
	st := pool.Stats()
	if st.Claims == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVanillaUniverseKillsOnOwnerReturn(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{
		Seed: 2, Workstations: 3,
		MeanOwnerActive: 10 * time.Minute,
		MeanOwnerIdle:   15 * time.Minute,
	})
	var kills atomic.Int32
	if err := pool.Submit("guest", JobCallbacks{
		OnKill: func() { kills.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(12 * time.Hour))
	if kills.Load() == 0 {
		t.Fatal("guest was never reclaimed in 12 hours of churn")
	}
	st := pool.Stats()
	if st.Reclaims == 0 {
		t.Fatalf("stats = %+v", st)
	}
	jobs := pool.Jobs()
	if len(jobs) != 1 || jobs[0].Kills == 0 || jobs[0].Starts <= jobs[0].Kills-1 {
		t.Fatalf("job report = %+v", jobs)
	}
}

func TestKilledJobIsRequeuedAndRestarts(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{
		Seed: 3, Workstations: 2,
		MeanOwnerActive: 5 * time.Minute,
		MeanOwnerIdle:   10 * time.Minute,
	})
	if err := pool.Submit("phoenix", JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(24 * time.Hour))
	jobs := pool.Jobs()
	if jobs[0].Starts < 2 {
		t.Fatalf("job should restart after reclamation: %+v", jobs[0])
	}
	if jobs[0].Goodput <= 0 {
		t.Fatal("no goodput accumulated")
	}
}

func TestGoodputLessThanWallClock(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 4, Workstations: 1})
	if err := pool.Submit("j", JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	horizon := 24 * time.Hour
	eng.Run(t0.Add(horizon))
	j := pool.Jobs()[0]
	if j.Goodput >= horizon {
		t.Fatalf("goodput %v >= wall clock %v; owner activity ignored", j.Goodput, horizon)
	}
	if j.Goodput <= 0 {
		t.Fatal("no goodput at all")
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 5, Workstations: 2})
	if err := pool.Submit("dup", JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Submit("dup", JobCallbacks{}); err == nil {
		t.Fatal("duplicate submit must fail")
	}
}

func TestRemoveKillsRunningJob(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 6, Workstations: 4})
	var killed atomic.Bool
	if err := pool.Submit("r", JobCallbacks{OnKill: func() { killed.Store(true) }}); err != nil {
		t.Fatal(err)
	}
	// Run until the job is placed, then remove it.
	eng.Run(t0.Add(2 * time.Hour))
	wasRunning := pool.Stats().Running > 0
	pool.Remove("r")
	if wasRunning && !killed.Load() {
		t.Fatal("running job removed without OnKill")
	}
	if len(pool.Jobs()) != 0 {
		t.Fatal("job not removed")
	}
	pool.Remove("nonexistent") // must not panic
}

func TestMoreJobsThanWorkstationsQueue(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 7, Workstations: 2})
	for i := 0; i < 6; i++ {
		if err := pool.Submit(string(rune('a'+i)), JobCallbacks{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(t0.Add(time.Hour))
	st := pool.Stats()
	if st.Running > 2 {
		t.Fatalf("more jobs running than workstations: %+v", st)
	}
	if st.Running+st.Queued < 6-2 {
		t.Fatalf("jobs lost: %+v", st)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() Stats {
		eng := simgrid.NewEngine(t0)
		pool := NewPool(eng, PoolConfig{Seed: 8, Workstations: 5})
		for i := 0; i < 3; i++ {
			pool.Submit(string(rune('a'+i)), JobCallbacks{})
		}
		eng.Run(t0.Add(8 * time.Hour))
		return pool.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestStationStatesAccounted(t *testing.T) {
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 9, Workstations: 10})
	eng.Run(t0.Add(3 * time.Hour))
	states := pool.StationStates()
	total := 0
	for _, n := range states {
		total += n
	}
	if total != 10 {
		t.Fatalf("states = %v", states)
	}
}

func TestClaimDelayRespected(t *testing.T) {
	// With an enormous claim delay, no workstation is ever claimed even
	// though many go idle.
	eng := simgrid.NewEngine(t0)
	pool := NewPool(eng, PoolConfig{Seed: 10, Workstations: 8, ClaimDelay: 100 * time.Hour})
	if err := pool.Submit("patient", JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(12 * time.Hour))
	st := pool.Stats()
	if st.Claims != 0 {
		t.Fatalf("claims = %d despite claim delay", st.Claims)
	}
	if st.Queued != 1 {
		t.Fatalf("queued = %d", st.Queued)
	}
}

func TestWorkstationStateString(t *testing.T) {
	for s, want := range map[WorkstationState]string{
		OwnerActive: "owner-active", Idle: "idle", Claimed: "claimed", 0: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("WorkstationState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
