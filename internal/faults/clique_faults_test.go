package faults

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/clique"
	"everyware/internal/wire"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

func agreeOn(members []*clique.Member, want []string) bool {
	for _, m := range members {
		v := m.View()
		if len(v.Members) != len(want) {
			return false
		}
		for i := range want {
			if v.Members[i] != want[i] {
				return false
			}
		}
		if v.Leader != want[0] {
			return false
		}
	}
	return true
}

// startFaultyClique runs n members over an in-memory wire transport with
// every endpoint's outbound path decorated by the injector.
func startFaultyClique(t *testing.T, n int, in *Injector) ([]*clique.Member, []string) {
	t.Helper()
	mt := wire.NewMemTransport()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	cfg := clique.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		ProbeInterval:     25 * time.Millisecond,
		TokenTimeout:      80 * time.Millisecond,
		Peers:             ids,
	}
	members := make([]*clique.Member, n)
	for i, id := range ids {
		svc := wire.NewService(wire.ServiceConfig{
			ListenAddr:  id,
			Transport:   mt,
			DialTimeout: 100 * time.Millisecond,
			Silent:      true,
		})
		if _, err := svc.Start(); err != nil {
			t.Fatalf("listen %s: %v", id, err)
		}
		ep := clique.NewEndpoint(svc.Server(), id, svc.Client(), 150*time.Millisecond)
		in.WrapEndpoint(ep)
		t.Cleanup(func() {
			ep.Close()
			svc.Close()
		})
		members[i] = clique.New(cfg, ep)
		members[i].Start()
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Stop()
		}
	})
	return members, ids
}

// TestCliqueFormsUnderFaults: with 10% drops, 5% duplicates, 5% resets
// and 10% delays on every protocol message, the clique still converges —
// the token/timeout machinery absorbs the losses. The clique can form in
// fewer messages than it takes to draw a drop, so the test waits for both
// at once: the members agree after at least one message was dropped.
func TestCliqueFormsUnderFaults(t *testing.T) {
	in := New(Config{Seed: 11, Drop: 0.10, Dup: 0.05, Reset: 0.05, Delay: 0.10, MaxDelay: 5 * time.Millisecond})
	members, ids := startFaultyClique(t, 4, in)
	eventually(t, 10*time.Second, func() bool { return in.Stats().Dropped > 0 && agreeOn(members, ids) },
		"clique agreement after a dropped message, under 20% message faults")
}

// TestCliquePartitionMergeUnderFaults: an injector-imposed partition
// splits the clique into two subcliques (each electing the minimum
// surviving ID); healing re-merges the full membership — all while 10%
// of the surviving messages are dropped or delayed.
func TestCliquePartitionMergeUnderFaults(t *testing.T) {
	in := New(Config{Seed: 13, Drop: 0.05, Delay: 0.05, MaxDelay: 5 * time.Millisecond})
	members, ids := startFaultyClique(t, 6, in)
	eventually(t, 10*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")

	in.Partition(ids[:3], ids[3:])
	eventually(t, 10*time.Second, func() bool {
		return agreeOn(members[:3], ids[:3]) && agreeOn(members[3:], ids[3:])
	}, "partition should yield subcliques {m00..m02} and {m03..m05}")

	in.Heal()
	eventually(t, 10*time.Second, func() bool { return agreeOn(members, ids) },
		"healed partition should re-merge the full clique")
}
