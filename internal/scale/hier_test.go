package scale

import (
	"testing"
	"time"

	"everyware/internal/gossip"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// comp is a minimal gossip-participating component: a wire service plus
// an agent registered into one pool.
type comp struct {
	svc   *wire.Service
	agent *gossip.Agent
	addr  string
}

func newComp(t *testing.T) *comp {
	t.Helper()
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &comp{svc: svc, agent: gossip.NewAgent(svc.Server(), addr), addr: addr}
}

func (c *comp) join(t *testing.T, pool, key string) {
	t.Helper()
	if err := c.agent.Track(key, gossip.CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.agent.Register(c.svc.Client(), pool, key, gossip.CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
}

func newPool(t *testing.T) *gossip.Server {
	t.Helper()
	g := gossip.NewServer(gossip.ServerConfig{
		ListenAddr:   "127.0.0.1:0",
		SyncInterval: 25 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
	})
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
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

// TestBridgeRepublishesRollups stands up a region pool and a top pool
// with real gossip servers and asserts the full hierarchy path: a region
// peer's rollup spreads through the region pool to the leader, whose
// bridge republishes it into the top pool, where a reader component
// observes it — without the reader ever joining the region pool.
func TestRegionsDeterministicAndCovering(t *testing.T) {
	members := shardNames(40)
	a := Regions(members, 8)
	b := Regions(members, 8)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("want 5 regions, got %d and %d", len(a), len(b))
	}
	total := 0
	for i := range a {
		total += len(a[i])
		if len(a[i]) != len(b[i]) {
			t.Fatal("partition not deterministic")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("partition not deterministic")
			}
		}
		if lead := LeaderOf(a[i]); len(a[i]) > 0 && lead != a[i][0] {
			t.Fatalf("leader %q is not the region's min ID %q", lead, a[i][0])
		}
	}
	if total != 40 {
		t.Fatalf("partition covers %d of 40 members", total)
	}
}

func TestGossipTrafficSublinear(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		flat, hier := GossipTraffic(n, 16)
		if hier >= flat {
			t.Errorf("n=%d: hierarchical traffic %d not below flat %d", n, hier, flat)
		}
	}
	// Doubling the fleet must grow hierarchical traffic far slower than
	// the flat O(n^2).
	_, h1 := GossipTraffic(512, 16)
	_, h2 := GossipTraffic(1024, 16)
	f1, _ := GossipTraffic(512, 16)
	f2, _ := GossipTraffic(1024, 16)
	if float64(h2)/float64(h1) >= float64(f2)/float64(f1) {
		t.Errorf("hierarchical growth %.2fx not below flat growth %.2fx",
			float64(h2)/float64(h1), float64(f2)/float64(f1))
	}
}

func TestBridgeRepublishesRollups(t *testing.T) {
	regionPool := newPool(t)
	topPool := newPool(t)
	key := RegionKey(0)

	// The leader participates in both pools: its region agent feeds the
	// bridge, its top agent publishes upward.
	leaderRegion := newComp(t)
	leaderRegion.join(t, regionPool.Addr(), key)
	leaderTop := newComp(t)
	leaderTop.join(t, topPool.Addr(), key)

	// A plain region member and a top-pool reader.
	peer := newComp(t)
	peer.join(t, regionPool.Addr(), key)
	reader := newComp(t)
	reader.join(t, topPool.Addr(), key)

	m := telemetry.NewRegistry()
	bridge := NewBridge(leaderRegion.agent, leaderTop.agent, 0, m)

	// Leader-originated rollup reaches the top-pool reader.
	bridge.Publish(Rollup{Region: 0, Members: 2, Clients: 100, Reports: 1, Unix: 1})
	waitFor(t, 5*time.Second, func() bool {
		rs := TopRollups(reader.agent)
		return len(rs) == 1 && rs[0].Reports == 1
	}, "leader rollup did not reach top-pool reader")

	// Peer-originated rollup (fresher counter) spreads region→leader→top.
	peer.agent.Set(key, EncodeRollup(Rollup{Region: 0, Members: 2, Clients: 100, Reports: 7, Unix: 2}))
	peer.agent.Set(key, EncodeRollup(Rollup{Region: 0, Members: 2, Clients: 100, Reports: 9, Unix: 3}))
	waitFor(t, 5*time.Second, func() bool {
		rs := TopRollups(reader.agent)
		return len(rs) == 1 && rs[0].Reports == 9
	}, "peer rollup was not republished into the top pool")

	if m.Snapshot("scale.hier.").Value("scale.hier.republished") == 0 {
		t.Error("bridge republish counter never incremented")
	}
}
