package faults

import (
	"testing"
	"time"

	"everyware/internal/wire"
)

// TestCtrlHeal is the self-healing acceptance run: a scheduler AND a
// roster replica are killed mid-workload (no harness restart — healing
// is the control plane's job) while a background writer quorum-writes
// checkpoints and light chaos perturbs every message. The controller
// must restart the scheduler in place, promote the standby into the
// quorum, and the run must end with converged digests and zero acked
// checkpoints lost.
func TestCtrlHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("heal scenario skipped in -short mode")
	}
	// A kill that cannot resolve through the member table is refused
	// before any fault is scheduled, not discovered when it fires.
	for _, bad := range []struct {
		kill  KillSpec
		ctrls int
		want  string
	}{
		{KillSpec{Target: "sched9"}, 1, `faults: kill target "sched9" is not a registered daemon`},
		{KillSpec{Target: "ctrl-leader"}, 0, `faults: kill target "ctrl-leader" requires the control plane`},
	} {
		_, err := RunScenario(ScenarioConfig{
			Gossips: 1, Schedulers: 1, Components: 1, PStates: 1,
			Ctrls:     bad.ctrls,
			Dir:       t.TempDir(),
			Transport: wire.NewMemTransport(),
			Kills:     []KillSpec{bad.kill},
		})
		if err == nil || err.Error() != bad.want {
			t.Errorf("kill %q (ctrls=%d): error %v, want %s", bad.kill.Target, bad.ctrls, err, bad.want)
		}
	}
	res, err := RunScenario(ScenarioConfig{
		Seed: 42,
		Faults: Config{
			Drop:     0.02,
			Dup:      0.01,
			Delay:    0.02,
			MaxDelay: 5 * time.Millisecond,
		},
		Gossips:        3,
		Schedulers:     2,
		Components:     3,
		Cycles:         6,
		PStates:        3,
		StandbyPStates: 1,
		Ctrls:          1,
		WriteLoad:      true,
		Dir:            t.TempDir(),
		Kills: []KillSpec{
			{Target: "sched1", At: 300 * time.Millisecond},
			{Target: "pstate2", At: 500 * time.Millisecond},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("no useful operations delivered while the fleet healed")
	}
	if res.Restarts < 1 {
		t.Errorf("controller restarts = %d, want >= 1 (sched1 was killed)", res.Restarts)
	}
	if res.Promotions < 1 {
		t.Errorf("controller promotions = %d, want >= 1 (pstate2 was killed)", res.Promotions)
	}
	if res.AckedWrites == 0 {
		t.Fatal("writer never got a checkpoint acknowledged")
	}
	if res.LostWrites != 0 {
		t.Errorf("lost %d acked checkpoint writes across the heal", res.LostWrites)
	}
	if !res.PStateConverged {
		t.Error("final roster never converged to identical digests")
	}
	if len(res.FinalRoster) != 3 {
		t.Errorf("final roster %v, want 3 members", res.FinalRoster)
	}
	// MTTR must be recorded and bounded by the heal wait itself.
	if res.MTTRRestart <= 0 || res.MTTRRestart > 20*time.Second {
		t.Errorf("MTTR(restart) = %v, want within (0, 20s]", res.MTTRRestart)
	}
	if res.MTTRPromote <= 0 || res.MTTRPromote > 20*time.Second {
		t.Errorf("MTTR(promote) = %v, want within (0, 20s]", res.MTTRPromote)
	}
	t.Logf("heal: restarts=%d promotions=%d backoffs=%d mttr(restart)=%v mttr(promote)=%v acked=%d roster=%v",
		res.Restarts, res.Promotions, res.Backoffs, res.MTTRRestart, res.MTTRPromote,
		res.AckedWrites, res.FinalRoster)
}

// TestCtrlLeaderFailoverHeal is the HA control-plane acceptance run: a
// replicated three-controller group runs the fleet, a scheduler is
// killed to open a heal, and then the ACTING LEADER is killed before the
// detector's dead threshold can possibly have let it finish the repair.
// A follower — warm from the broadcast heartbeat stream — must win the
// election, fence a strictly higher epoch, and complete the heal, all
// while a background writer quorum-writes checkpoints that must survive
// to the last byte: zero acked writes lost.
func TestCtrlLeaderFailoverHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("leader-failover scenario skipped in -short mode")
	}
	res, err := RunScenario(ScenarioConfig{
		Seed: 77,
		Faults: Config{
			Drop:     0.02,
			Dup:      0.01,
			Delay:    0.02,
			MaxDelay: 5 * time.Millisecond,
		},
		Gossips:    3,
		Schedulers: 2,
		Components: 3,
		Cycles:     6,
		PStates:    3,
		Ctrls:      3,
		WriteLoad:  true,
		Dir:        t.TempDir(),
		Kills: []KillSpec{
			// The scheduler dies first; the leader dies 200ms later —
			// well inside the detector's 2s floor, so the heal is still
			// pending when leadership changes hands.
			{Target: "sched1", At: 300 * time.Millisecond},
			{Target: "ctrl-leader", At: 500 * time.Millisecond},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("no useful operations delivered across the leader failover")
	}
	if res.Restarts < 1 {
		t.Errorf("controller restarts = %d, want >= 1 (sched1 was killed and the successor owns the heal)", res.Restarts)
	}
	if res.LeaderFailoverMTTR <= 0 || res.LeaderFailoverMTTR > 20*time.Second {
		t.Errorf("leader failover MTTR = %v, want within (0, 20s]", res.LeaderFailoverMTTR)
	}
	if res.AckedWrites == 0 {
		t.Fatal("writer never got a checkpoint acknowledged")
	}
	if res.LostWrites != 0 {
		t.Errorf("lost %d acked checkpoint writes across the leader failover", res.LostWrites)
	}
	if !res.PStateConverged {
		t.Error("final roster never converged to identical digests")
	}
	t.Logf("leader failover: mttr=%v restarts=%d mttr(restart)=%v acked=%d",
		res.LeaderFailoverMTTR, res.Restarts, res.MTTRRestart, res.AckedWrites)
}
