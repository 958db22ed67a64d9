package faults

import (
	"testing"
	"time"

	"everyware/internal/core"
	"everyware/internal/pstate"
)

// TestRecoverNotStaleAfterPartition is the stale-read regression: a
// component checkpoints while one replica is partitioned away, the
// partition heals, and a Recover that happens to list the stale replica
// FIRST must still return the fresh checkpoint — the quorum read
// reconciles across replicas instead of trusting whichever answered
// first. Before quorum reads, recovery order decided freshness.
func TestRecoverNotStaleAfterPartition(t *testing.T) {
	in := New(Config{Seed: 7}) // no message faults; partitions only

	// Three managers A, B, C; anti-entropy effectively off so the quorum
	// read alone must mask the staleness.
	var addrs []string
	labels := []string{"psA", "psB", "psC"}
	for _, label := range labels {
		ps, err := pstate.NewServer(pstate.ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			Dir:          t.TempDir(),
			SyncInterval: time.Hour,
			Transport:    in.Transport(nil, label),
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ps.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ps.Close)
		in.RegisterName(addr, label)
		addrs = append(addrs, addr)
	}
	a, b, c := addrs[0], addrs[1], addrs[2]

	// The component lists the soon-to-be-stale replica C first.
	comp := core.NewComponent(core.ComponentConfig{
		ID:        "stale-reader",
		Infra:     "test",
		PStates:   []string{c, a, b},
		Transport: in.Transport(nil, "comp"),
	})
	if _, err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	defer comp.Close()

	// Seed every replica with v1, then cut C off and write v2 to {A, B}.
	if err := comp.Checkpoint("ckpt", "", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	in.Partition([]string{"comp"}, []string{"psC"})
	if err := comp.Checkpoint("ckpt", "", []byte("v2-fresh")); err != nil {
		t.Fatalf("checkpoint with 2/3 replicas reachable must ack: %v", err)
	}
	in.Heal()

	o, err := comp.Recover("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "v2-fresh" {
		t.Fatalf("Recover returned stale checkpoint %q (version %d), want v2-fresh",
			o.Data, o.Version)
	}
}
