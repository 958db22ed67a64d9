package faults

import (
	"testing"
	"time"

	"everyware/internal/gossip"
	"everyware/internal/wire"
)

// startFaultyGossip runs a Gossip daemon whose every outbound call —
// clique traffic to pool peers, state polls and pushes to components,
// registration sharing — passes through the injector under label.
func startFaultyGossip(t *testing.T, in *Injector, label string, wellKnown ...string) *gossip.Server {
	t.Helper()
	g := gossip.NewServer(gossip.ServerConfig{
		ListenAddr:   "127.0.0.1:0",
		WellKnown:    wellKnown,
		SyncInterval: 30 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
		CallTimeout:  250 * time.Millisecond,
		MaxFailures:  10, // fault noise must not evict live components
		Transport:    in.Transport(nil, label),
		Retry:        &wire.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	addr, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	in.RegisterName(addr, label)
	t.Cleanup(g.Close)
	return g
}

// TestGossipAntiEntropyUnderFaults: two Gossips whose pool and component
// traffic suffers 10% drops and 5% resets still replicate registrations
// pool-wide and synchronize component state through the responsible
// member — the retry/backoff ladder plus periodic anti-entropy absorb the
// losses.
func TestGossipAntiEntropyUnderFaults(t *testing.T) {
	in := New(Config{Seed: 17, Drop: 0.10, Reset: 0.05, Delay: 0.05, MaxDelay: 5 * time.Millisecond})
	g1 := startFaultyGossip(t, in, "g1")
	g2 := startFaultyGossip(t, in, "g2", g1.Addr())
	eventually(t, 10*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "gossip pool formation under faults")

	// Two components, each registering the shared key with a different
	// Gossip; both clients dial through the injector too.
	mk := func(label, gaddr string) (*gossip.Agent, *wire.Client, string) {
		svc := wire.NewService(wire.ServiceConfig{
			ListenAddr:  "127.0.0.1:0",
			DialTimeout: time.Second,
			Transport:   in.Transport(nil, label),
			Retry:       &wire.RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
			Silent:      true,
		})
		addr, err := svc.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		in.RegisterName(addr, label)
		a := gossip.NewAgent(svc.Server(), addr)
		c := svc.Client()
		eventually(t, 10*time.Second, func() bool {
			return a.Register(c, gaddr, "k", gossip.CmpCounter, time.Second) == nil
		}, "component registration despite faults")
		return a, c, addr
	}
	a1, _, _ := mk("c1", g1.Addr())
	a2, _, _ := mk("c2", g2.Addr())

	// Registration sharing: each Gossip must eventually know both
	// components (anti-entropy replays the table across the pool).
	eventually(t, 15*time.Second, func() bool {
		return len(g1.Registrations()) == 2 && len(g2.Registrations()) == 2
	}, "registrations should replicate to both Gossips under faults")

	// State written at c1 must reach c2 across the faulty pool.
	a1.Set("k", []byte("survives chaos"))
	eventually(t, 15*time.Second, func() bool {
		s, ok := a2.Get("k")
		return ok && string(s.Data) == "survives chaos"
	}, "state should synchronize across components under faults")

	if st := in.Stats(); st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("injector saw no traffic: %+v", st)
	}
}
