package gossip

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/clique"
	"everyware/internal/wire"
)

func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// testComponent is a minimal application component: a wire server plus an
// Agent.
type testComponent struct {
	srv   *wire.Server
	agent *Agent
	addr  string
}

func newTestComponent(t *testing.T) *testComponent {
	t.Helper()
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &testComponent{srv: svc.Server(), agent: NewAgent(svc.Server(), addr), addr: addr}
}

func newTestGossip(t *testing.T, wellKnown ...string) *Server {
	t.Helper()
	g := NewServer(ServerConfig{
		ListenAddr:   "127.0.0.1:0",
		WellKnown:    wellKnown,
		SyncInterval: 30 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
		MaxFailures:  3,
	})
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// A negative interval is unset, like zero: the daemon runs on the
// defaults instead of panicking in time.NewTicker.
func TestNegativeIntervalsMeanDefault(t *testing.T) {
	g := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", SyncInterval: -time.Second, Heartbeat: -time.Second})
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.cfg.SyncInterval != time.Second || g.cfg.Heartbeat != time.Second {
		t.Fatalf("intervals = %v, %v", g.cfg.SyncInterval, g.cfg.Heartbeat)
	}
	g.SyncRound()
}

func TestStampedRoundTrip(t *testing.T) {
	s := Stamped{Key: "k", Counter: 9, Unix: 123456789, Origin: "a:1", Data: []byte("payload")}
	got, err := DecodeStamped(EncodeStamped(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != s.Key || got.Counter != s.Counter || got.Unix != s.Unix ||
		got.Origin != s.Origin || !bytes.Equal(got.Data, s.Data) {
		t.Fatalf("got %+v want %+v", got, s)
	}
}

func TestQuickStampedRoundTrip(t *testing.T) {
	f := func(key string, counter uint64, unix int64, origin string, data []byte) bool {
		s := Stamped{Key: key, Counter: counter, Unix: unix, Origin: origin, Data: data}
		got, err := DecodeStamped(EncodeStamped(s))
		return err == nil && got.Key == key && got.Counter == counter &&
			got.Unix == unix && got.Origin == origin && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationsRoundTrip(t *testing.T) {
	rs := []Registration{
		{Addr: "a:1", Key: "k1", Comparator: CmpCounter},
		{Addr: "b:2", Key: "k2", Comparator: CmpBytes},
	}
	got, err := DecodeRegistrations(EncodeRegistrations(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != rs[0] || got[1] != rs[1] {
		t.Fatalf("got %+v", got)
	}
}

func TestComparators(t *testing.T) {
	cc, _ := LookupComparator(CmpCounter)
	if cc(Stamped{Counter: 2}, Stamped{Counter: 1}) <= 0 {
		t.Fatal("counter: higher must be fresher")
	}
	if cc(Stamped{Counter: 1, Unix: 5}, Stamped{Counter: 1, Unix: 3}) <= 0 {
		t.Fatal("counter tie: later timestamp must win")
	}
	ct, _ := LookupComparator(CmpTimestamp)
	if ct(Stamped{Unix: 10}, Stamped{Unix: 20}) >= 0 {
		t.Fatal("timestamp: earlier must be staler")
	}
	cb, _ := LookupComparator(CmpBytes)
	if cb(Stamped{Data: []byte("b")}, Stamped{Data: []byte("a")}) <= 0 {
		t.Fatal("bytes: lexicographically larger must win")
	}
	if _, ok := LookupComparator("nope"); ok {
		t.Fatal("unknown comparator must not resolve")
	}
}

func TestRegisterComparatorRejectsDuplicates(t *testing.T) {
	name := "test_dup_cmp"
	if err := RegisterComparator(name, func(a, b Stamped) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterComparator(name, func(a, b Stamped) int { return 0 }); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}

func TestAgentSetGet(t *testing.T) {
	c := newTestComponent(t)
	c.agent.Set("k", []byte("v1"))
	s, ok := c.agent.Get("k")
	if !ok || string(s.Data) != "v1" || s.Counter != 1 {
		t.Fatalf("got %+v, %v", s, ok)
	}
	c.agent.Set("k", []byte("v2"))
	s, _ = c.agent.Get("k")
	if string(s.Data) != "v2" || s.Counter != 2 {
		t.Fatalf("got %+v", s)
	}
}

func TestAgentInstallRejectsStale(t *testing.T) {
	c := newTestComponent(t)
	c.agent.Set("k", []byte("fresh"))
	stale := Stamped{Key: "k", Counter: 0, Data: []byte("stale")}
	if c.agent.SetStamped(stale) {
		t.Fatal("stale copy must not install")
	}
	s, _ := c.agent.Get("k")
	if string(s.Data) != "fresh" {
		t.Fatalf("state corrupted: %q", s.Data)
	}
}

func TestAgentTrackUnknownComparator(t *testing.T) {
	c := newTestComponent(t)
	if err := c.agent.Track("k", "bogus", nil); err == nil {
		t.Fatal("unknown comparator must be rejected")
	}
}

func TestGossipSynchronizesTwoComponents(t *testing.T) {
	g := newTestGossip(t)
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	client := wire.NewClient(time.Second)
	defer client.Close()

	const key = "app/state"
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.agent.Set(key, []byte("hello from c1"))
	eventually(t, 5*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "hello from c1"
	}, "c2 should receive c1's state via the Gossip")
}

func TestGossipPropagatesFreshestAmongMany(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/best"
	comps := make([]*testComponent, 4)
	for i := range comps {
		comps[i] = newTestComponent(t)
		if err := comps[i].agent.Track(key, CmpBytes, nil); err != nil {
			t.Fatal(err)
		}
		if err := comps[i].agent.Register(client, g.Addr(), key, CmpBytes, time.Second); err != nil {
			t.Fatal(err)
		}
		comps[i].agent.Set(key, []byte(fmt.Sprintf("value-%d", i)))
	}
	// Under the bytes comparator, "value-3" is the freshest.
	eventually(t, 5*time.Second, func() bool {
		for _, c := range comps {
			s, ok := c.agent.Get(key)
			if !ok || string(s.Data) != "value-3" {
				return false
			}
		}
		return true
	}, "all components should converge to the lexicographic maximum")
}

func TestGossipOnUpdateCallback(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/cb"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	updates := make(chan Stamped, 8)
	if err := c1.agent.Track(key, CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Track(key, CmpCounter, func(s Stamped) { updates <- s }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.agent.Set(key, []byte("notify"))
	select {
	case s := <-updates:
		if string(s.Data) != "notify" {
			t.Fatalf("update payload = %q", s.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update callback within 5s")
	}
}

func TestGossipEvictsDeadComponent(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/evict"
	baseline := len(g.timeout.Registry.Keys())
	c := newTestComponent(t)
	if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() bool { return len(g.Registrations()) == 1 }, "registered")
	eventually(t, 2*time.Second, func() bool { return len(g.timeout.Registry.Keys()) > baseline }, "polled")
	c.srv.Close() // component dies
	eventually(t, 10*time.Second, func() bool { return len(g.Registrations()) == 0 },
		"dead component should be evicted after MaxFailures")
	// Eviction and forgetting happen under one lock, so no wait is needed.
	if got := g.timeout.Registry.Keys(); len(got) != baseline {
		t.Fatalf("evicted holder's forecasters linger: %v", got)
	}
}

func TestGossipPoolFormsAndSharesRegistrations(t *testing.T) {
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "two Gossips should form a pool")

	client := wire.NewClient(time.Second)
	defer client.Close()
	c := newTestComponent(t)
	if err := c.agent.Register(client, g1.Addr(), "app/shared", CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, func() bool {
		return len(g2.Registrations()) == 1
	}, "registration should replicate to the peer Gossip")
}

func TestGossipPoolSynchronizesAcrossResponsibleMember(t *testing.T) {
	// With a 2-Gossip pool, whichever member owns the key must sync it.
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "pool formation")
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/pooled"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		// Register with different pool members.
	}
	if err := c1.agent.Register(client, g1.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Register(client, g2.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	c1.agent.Set(key, []byte("pooled-state"))
	eventually(t, 8*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "pooled-state"
	}, "state should flow even when registrations landed on different Gossips")
}

func TestAgentConcurrentSetAndGet(t *testing.T) {
	c := newTestComponent(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.agent.Set("k", []byte{byte(i), byte(j)})
				c.agent.Get("k")
			}
		}(i)
	}
	wg.Wait()
	s, ok := c.agent.Get("k")
	if !ok || s.Counter != 800 {
		t.Fatalf("counter = %d, want 800", s.Counter)
	}
}

func TestAntiEntropyReachesLateJoiningGossip(t *testing.T) {
	g1 := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	// A component registers BEFORE the second Gossip exists.
	c := newTestComponent(t)
	if err := c.agent.Register(client, g1.Addr(), "app/early", CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g2.PoolView().Members) == 2
	}, "pool formation")
	// Anti-entropy must deliver the early registration to g2.
	eventually(t, 10*time.Second, func() bool {
		return len(g2.Registrations()) == 1
	}, "late-joining Gossip should learn earlier registrations via anti-entropy")
}

func TestPoolSurvivesGossipDeath(t *testing.T) {
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "pool formation")
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/ha"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.agent.Register(client, g1.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The registration replicated to g2; wait for it so the kill cannot
	// race the forward.
	eventually(t, 5*time.Second, func() bool { return len(g2.Registrations()) >= 2 },
		"registrations replicated to g2")
	g1.Close() // the registering Gossip dies
	// Synchronization must continue through the surviving pool member,
	// which rebalances responsibility via the clique protocol.
	c1.agent.Set(key, []byte("after-death"))
	eventually(t, 10*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "after-death"
	}, "state should still synchronize after the responsible Gossip dies")
}

// TestShareCoalescerMergesPerPeer drives the registration-share
// coalescer directly (no network): shares buffer per destination peer,
// merge last-write-wins per (addr, key) preserving arrival order, drain
// in sorted peer order, and drain exactly once.
func TestShareCoalescerMergesPerPeer(t *testing.T) {
	s := NewServer(ServerConfig{})
	view := clique.View{Members: []string{"peer-b:1", "peer-a:1", "self"}}
	s.addr = "self"

	regA := Registration{Addr: "comp1:1", Key: "app/a", Comparator: CmpCounter}
	regB := Registration{Addr: "comp2:1", Key: "app/b", Comparator: CmpCounter}
	regA2 := Registration{Addr: "comp1:1", Key: "app/a", Comparator: CmpBytes}

	s.enqueueShare(view, regA)
	s.enqueueShare(view, regB)
	s.enqueueShare(view, regA2) // same (addr, key) as regA: supersedes it

	ships := s.shares.TakeAll()
	if len(ships) != 2 {
		t.Fatalf("shipments = %d, want 2 (one per non-self peer)", len(ships))
	}
	if ships[0].Dest != "peer-a:1" || ships[1].Dest != "peer-b:1" {
		t.Fatalf("peers = %q, %q; want sorted peer-a:1, peer-b:1", ships[0].Dest, ships[1].Dest)
	}
	for _, sh := range ships {
		if len(sh.Items) != 2 {
			t.Fatalf("table for %s has %d entries, want 2 (coalesced)", sh.Dest, len(sh.Items))
		}
		// Last write wins in the original slot: regA2 replaced regA.
		if sh.Items[0] != regA2 || sh.Items[1] != regB {
			t.Fatalf("table for %s = %+v, want [regA2 regB]", sh.Dest, sh.Items)
		}
	}
	if got := s.metrics.Counter("gossip.share.coalesced").Value(); got != 2 {
		t.Fatalf("coalesced counter = %d, want 2 (one per peer)", got)
	}
	if again := s.shares.TakeAll(); len(again) != 0 {
		t.Fatalf("second take returned %d shipments, want 0", len(again))
	}
}

// TestCloseIsCleanAndRaceSafe: concurrent Close calls do not panic; after
// Close a share that is enqueued and kicked is never sent and nothing
// dials; and once every daemon is closed no goroutine is left.
func TestCloseIsCleanAndRaceSafe(t *testing.T) {
	base := runtime.NumGoroutine()
	dials := &dialCounter{Transport: wire.TCP}
	start := func(tr wire.Transport, wellKnown ...string) *Server {
		g := NewServer(ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			WellKnown:    wellKnown,
			SyncInterval: 30 * time.Millisecond,
			Heartbeat:    20 * time.Millisecond,
			Transport:    tr,
		})
		if _, err := g.Start(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	a := start(dials)
	b := start(nil, a.Addr())
	eventually(t, 5*time.Second, func() bool { return len(a.PoolView().Members) == 2 }, "pool of two")

	// A registration at a reaches b through the share sender.
	wc := wire.NewClient(time.Second)
	reg := Registration{Addr: "comp:1", Key: "app/k", Comparator: CmpCounter}
	if err := wc.CallMsg(a.Addr(), MsgRegister, reg, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	wc.Close()
	eventually(t, 5*time.Second, func() bool { return len(b.Registrations()) == 1 }, "share to reach the peer")

	view := a.PoolView()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Close()
		}()
	}
	wg.Wait()

	dialed := dials.n.Load()
	late := Registration{Addr: "comp:2", Key: "app/k", Comparator: CmpCounter}
	a.enqueueShare(view, late)
	a.out.Kick()
	b.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
	if got := dials.n.Load(); got != dialed {
		t.Fatalf("closed gossip dialed %d more times", got-dialed)
	}
	if a.shares.Len() != 1 {
		t.Fatalf("a share enqueued after Close was taken for sending (%d pending, want 1)", a.shares.Len())
	}
}

// dialCounter is a Transport that counts the dials made through it.
type dialCounter struct {
	wire.Transport
	n atomic.Int64
}

func (t *dialCounter) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.n.Add(1)
	return t.Transport.Dial(addr, timeout)
}
