package core

import (
	"slices"
	"testing"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/wire"
)

// A deployment with the control plane on heals itself: a killed
// scheduler is recreated in place at the same address, and a killed
// roster replica is replaced by promoting the standby.
func TestDeploymentSelfHeals(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Schedulers:        2,
		PStateDir:         t.TempDir(),
		ExtraPStateDirs:   []string{t.TempDir(), t.TempDir()},
		StandbyPStateDirs: []string{t.TempDir()},
		Controllers:       1,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if d.CtrlAddr == "" || d.Controller() == nil {
		t.Fatal("controller not started")
	}
	if len(d.StandbyPStateAddrs) != 1 {
		t.Fatalf("standbys: %v", d.StandbyPStateAddrs)
	}
	probe := wire.NewClient(time.Second)
	t.Cleanup(probe.Close)
	// 2 schedulers + 3 roster pstates + 1 standby + 1 gossip + 1 logd.
	eventually(t, 10*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, d.CtrlAddr, time.Second)
		return err == nil && st.Live == 8 && len(st.Standbys) == 1
	}, "fleet never fully attested to the controller")

	// Kill a scheduler. The beater goes silent (its probe fails), the
	// detector declares the member dead, and the restart hook recreates
	// the daemon at the same address.
	victim := d.SchedAddrs[1]
	d.Schedulers()[1].Close()
	eventually(t, 15*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, d.CtrlAddr, time.Second)
		if err != nil || st.Restarts < 1 {
			return false
		}
		_, err = probe.Call(victim, &wire.Packet{Type: wire.MsgPing}, 200*time.Millisecond)
		return err == nil
	}, "killed scheduler never came back")

	// Kill a roster replica. Promotion drafts the standby into the
	// quorum; the replica set and the published roster follow.
	standby := d.StandbyPStateAddrs[0]
	dead := d.PStateAddrs[2]
	d.PStates()[2].Close()
	eventually(t, 15*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, d.CtrlAddr, time.Second)
		if err != nil || st.Promotions < 1 {
			return false
		}
		inRoster := func(a string) bool {
			for _, r := range st.Roster {
				if r == a {
					return true
				}
			}
			return false
		}
		return inRoster(standby) && !inRoster(dead)
	}, "standby never promoted into the roster")
}

// A replicated control plane survives its own leader: all controllers
// ingest the broadcast heartbeat stream, so when the acting leader dies
// a follower with warm detector state wins the election, fences under a
// higher epoch, and completes the heal the dead leader would have run.
func TestDeploymentControlPlaneFailover(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Schedulers:        1,
		PStateDir:         t.TempDir(),
		ExtraPStateDirs:   []string{t.TempDir(), t.TempDir()},
		Controllers:       3,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if len(d.CtrlAddrs) != 3 {
		t.Fatalf("controller group: %v", d.CtrlAddrs)
	}
	probe := wire.NewClient(time.Second)
	t.Cleanup(probe.Close)

	// A leader emerges and fences; the whole fleet attests to it.
	// 1 scheduler + 3 roster pstates + 1 gossip + 1 logd = 6 members.
	var leader *ctrl.Server
	eventually(t, 10*time.Second, func() bool {
		leader = d.LeaderController()
		return leader != nil && leader.Epoch() > 0
	}, "no controller won the election")
	eventually(t, 10*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, leader.Addr(), time.Second)
		return err == nil && st.Live == 6
	}, "fleet never fully attested to the leader")
	epoch0 := leader.Epoch()

	// Kill the leader, then a scheduler: the heal must be finished by a
	// successor that was never asked to bootstrap.
	leaderAddr := leader.Addr()
	leader.Close()
	victim := d.SchedAddrs[0]
	d.Schedulers()[0].Close()

	var successor *ctrl.Server
	eventually(t, 20*time.Second, func() bool {
		successor = d.LeaderController()
		return successor != nil && successor.Addr() != leaderAddr && successor.Epoch() > epoch0
	}, "no follower took over under a higher epoch")
	eventually(t, 20*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, successor.Addr(), time.Second)
		if err != nil || st.Restarts < 1 {
			return false
		}
		_, err = probe.Call(victim, &wire.Packet{Type: wire.MsgPing}, 200*time.Millisecond)
		return err == nil
	}, "successor never healed the killed scheduler")
}

// AddScheduler grows the fleet under the control plane (new shard
// published and attested); retireMember shrinks it back.
func TestDeploymentAddAndRetireScheduler(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Schedulers:        1,
		PStateDir:         t.TempDir(),
		Controllers:       1,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	probe := wire.NewClient(time.Second)
	t.Cleanup(probe.Close)

	addr, err := d.AddScheduler()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SchedAddrs) != 2 || d.SchedAddrs[1] != addr {
		t.Fatalf("roster after add: %v", d.SchedAddrs)
	}
	if _, err := probe.Call(addr, &wire.Packet{Type: wire.MsgPing}, time.Second); err != nil {
		t.Fatalf("new shard not serving: %v", err)
	}
	// The new shard is shadowed: it shows up in the attested membership.
	eventually(t, 10*time.Second, func() bool {
		ms, err := ctrl.FetchMembers(probe, d.CtrlAddr, time.Second)
		if err != nil {
			return false
		}
		for _, m := range ms {
			if m.ID == "sched2" && m.Alive {
				return true
			}
		}
		return false
	}, "added scheduler never attested")

	if err := d.retireMember(ctrl.Member{ID: "sched2", Role: ctrl.RoleSched, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	if len(d.SchedAddrs) != 1 {
		t.Fatalf("roster after retire: %v", d.SchedAddrs)
	}
	if _, err := probe.Call(addr, &wire.Packet{Type: wire.MsgPing}, 200*time.Millisecond); err == nil {
		t.Fatal("retired shard still serving")
	}
}

// Close is idempotent, including after the controller has restarted
// daemons in place (the handles Close tears down are not the ones
// StartDeployment created).
func TestDeploymentCloseIdempotent(t *testing.T) {
	d, err := StartDeployment(DeploymentConfig{
		PStateDir:         t.TempDir(),
		Controllers:       1,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // second close must be a no-op, not a panic
	// And a restart hook arriving after close is refused.
	if err := d.restartMember(ctrl.Member{ID: "sched1", Role: ctrl.RoleSched, Addr: d.SchedAddrs[0]}); err == nil {
		t.Fatal("restart after close succeeded")
	}
}

// A roster replica the controller restarts in place comes back as the
// replica it was: it knows its siblings, so it goes on initiating
// anti-entropy rounds (with no peers a round is a no-op and the healed
// replica would only ever be repaired by others, never repair).
func TestRestartedReplicaResumesAntiEntropy(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		PStateDir:         t.TempDir(),
		ExtraPStateDirs:   []string{t.TempDir(), t.TempDir()},
		Controllers:       1,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	probe := wire.NewClient(time.Second)
	t.Cleanup(probe.Close)
	// Enough heartbeats for the detector to model the victim's arrivals:
	// a member it barely knows gets ten seconds of grace before a verdict.
	eventually(t, 10*time.Second, func() bool {
		ms, _ := ctrl.FetchMembers(probe, d.CtrlAddr, time.Second)
		for _, m := range ms {
			if m.ID == "pstate2" {
				return m.Beats >= 4
			}
		}
		return false
	}, "pstate2 never attested to the controller")

	victim := d.PStates()[1]
	siblings := []string{d.PStateAddrs[0], d.PStateAddrs[2]}
	if got := victim.Peers(); !slices.Equal(got, siblings) {
		t.Fatalf("peers before the kill: %v, want %v", got, siblings)
	}
	victim.Close()
	// No standby to promote, so the controller restarts the replica.
	eventually(t, 15*time.Second, func() bool {
		st, err := ctrl.FetchStatus(probe, d.CtrlAddr, time.Second)
		return err == nil && st.Restarts >= 1 && d.PStates()[1] != victim
	}, "killed replica never restarted")

	healed := d.PStates()[1]
	if healed.Addr() != d.PStateAddrs[1] {
		t.Fatalf("restarted at %s, was %s", healed.Addr(), d.PStateAddrs[1])
	}
	if got := healed.Peers(); !slices.Equal(got, siblings) {
		t.Errorf("peers after the controller's restart: %v, want %v", got, siblings)
	}
	rounds := func() int64 {
		return healed.Metrics().Snapshot("pstate.antientropy.rounds").Value("pstate.antientropy.rounds")
	}
	before := rounds()
	if _, err := healed.SyncNow(); err != nil {
		t.Errorf("anti-entropy round on the restarted replica: %v", err)
	}
	if rounds() <= before {
		t.Error("pstate.antientropy.rounds did not grow on the restarted replica")
	}
}
