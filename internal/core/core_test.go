package core

import (
	"strings"
	"testing"
	"time"

	"everyware/internal/gossip"
	"everyware/internal/obs"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/wire"
)

func startDeployment(t *testing.T, cfg DeploymentConfig) *Deployment {
	t.Helper()
	d, err := StartDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

func TestCounterExampleValidatorRegistered(t *testing.T) {
	v, ok := pstate.LookupValidator(CounterExampleClass)
	if !ok {
		t.Fatal("validator missing")
	}
	pent, _ := ramsey.Paley(5)
	good := (&ramsey.CounterExample{K: 3, Coloring: pent}).Encode()
	if err := v("x", good); err != nil {
		t.Fatal(err)
	}
	bad := (&ramsey.CounterExample{K: 3, Coloring: ramsey.NewColoring(6)}).Encode()
	if err := v("x", bad); err == nil {
		t.Fatal("invalid counter-example must be rejected")
	}
	if err := v("x", []byte{1, 2}); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestDeploymentStartsAllServices(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Gossips: 2, Schedulers: 2, PStateDir: t.TempDir(),
	})
	if len(d.GossipAddrs) != 2 || len(d.SchedAddrs) != 2 {
		t.Fatalf("addrs: %v %v", d.GossipAddrs, d.SchedAddrs)
	}
	if d.PStateAddr == "" || d.LogAddr == "" {
		t.Fatal("missing pstate/log services")
	}
	eventually(t, 5*time.Second, func() bool {
		return len(d.GossipServers()[0].PoolView().Members) == 2
	}, "gossip pool should form")
}

func TestComponentEndToEndFindsAndPropagates(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		N: 5, K: 3, StepsPerCycle: 3000, PStateDir: t.TempDir(),
	})
	// Two compute components; one will find the K5 counter-example and the
	// other must learn it through Gossip replication.
	c1 := NewComponent(d.NewComponentConfig("client-1", "unix"))
	c2 := NewComponent(d.NewComponentConfig("client-2", "nt"))
	for _, c := range []*Component{c1, c2} {
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// Drive both until a counter-example is found and checkpointed.
	foundIt := func() bool {
		for _, s := range d.Schedulers() {
			if len(s.Found()) > 0 {
				return true
			}
		}
		return false
	}
	for i := 0; i < 60 && !foundIt(); i++ {
		if _, err := c1.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.RunCycles(1); err != nil {
			t.Fatal(err)
		}
	}
	if !foundIt() {
		t.Fatal("no counter-example found in 60 cycles")
	}
	// Persistent state must hold the verified witness.
	eventually(t, 5*time.Second, func() bool {
		o := d.PState().Fetch("ramsey/R3/best")
		return o != nil && o.Class == CounterExampleClass
	}, "counter-example should be checkpointed")
	o := d.PState().Fetch("ramsey/R3/best")
	ce, err := ramsey.DecodeCounterExample(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.Verify(); err != nil {
		t.Fatal(err)
	}
	if ce.Bound() != 6 {
		t.Fatalf("bound = %d, want 6 (R(3) = 6)", ce.Bound())
	}
	// Gossip replication: both components converge on the best state.
	eventually(t, 10*time.Second, func() bool {
		return c1.Best() != nil && c2.Best() != nil
	}, "best counter-example should replicate to all components")
	// The logging service captured the perf stream.
	appended, _ := d.LogServer().Stats()
	if appended == 0 {
		t.Fatal("no log entries recorded")
	}
}

func TestComponentPublishAndOnReplicated(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3})
	c1 := NewComponent(d.NewComponentConfig("pub", "unix"))
	c2 := NewComponent(d.NewComponentConfig("sub", "unix"))
	for _, c := range []*Component{c1, c2} {
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	got := make(chan gossip.Stamped, 4)
	const key = "app/roster"
	if err := c1.OnReplicated(key, gossip.CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.OnReplicated(key, gossip.CmpCounter, func(s gossip.Stamped) { got <- s }); err != nil {
		t.Fatal(err)
	}
	c1.Publish(key, []byte("server list v1"))
	select {
	case s := <-got:
		if string(s.Data) != "server list v1" {
			t.Fatalf("payload = %q", s.Data)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("replicated update never arrived")
	}
}

func TestComponentCheckpointRecover(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3, PStateDir: t.TempDir()})
	c := NewComponent(d.NewComponentConfig("cp", "unix"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Checkpoint("app/progress", "", []byte("seed=42")); err != nil {
		t.Fatal(err)
	}
	o, err := c.Recover("app/progress")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "seed=42" {
		t.Fatalf("data = %q", o.Data)
	}
	if _, err := c.Recover("app/missing"); err == nil {
		t.Fatal("missing object must error")
	}
}

func TestComponentCheckpointRejectsInvalidCounterExample(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3, PStateDir: t.TempDir()})
	c := NewComponent(d.NewComponentConfig("bad", "unix"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bogus := (&ramsey.CounterExample{K: 3, Coloring: ramsey.NewColoring(6)}).Encode()
	if err := c.Checkpoint("evil", CounterExampleClass, bogus); err == nil {
		t.Fatal("persistent state manager must reject the forged counter-example")
	}
}

func TestComponentWithoutSchedulers(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3})
	cfg := d.NewComponentConfig("svc", "unix")
	cfg.Schedulers = nil
	c := NewComponent(cfg)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Runner() != nil {
		t.Fatal("service-only component must have no runner")
	}
	if _, err := c.RunCycles(1); err == nil {
		t.Fatal("RunCycles without schedulers must error")
	}
}

func TestSchedulerRosterCirculatesViaGossip(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3, StepsPerCycle: 2000})
	// The client is configured with ONLY a dead scheduler address; the
	// live roster must arrive through the Gossip service (section 5.4's
	// scheduler birth/death circulation).
	cfg := d.NewComponentConfig("roster-client", "unix")
	cfg.Schedulers = []string{"127.0.0.1:1"} // nothing listens here
	cfg.CallTimeout = 300 * time.Millisecond
	c := NewComponent(cfg)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Cycle until the gossip round delivers the roster and a cycle
	// succeeds against the real scheduler.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.RunCycles(1); err == nil {
			reports, _, _ := d.Schedulers()[0].Stats()
			if reports > 0 {
				return // reached the live scheduler
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("client never learned the live scheduler roster via Gossip")
}

func TestComponentRecoveryAfterTotalLoss(t *testing.T) {
	// The "dependable" criterion: persistent state outlives every process.
	dir := t.TempDir()
	d1 := startDeployment(t, DeploymentConfig{N: 5, K: 3, StepsPerCycle: 3000, PStateDir: dir})
	c1 := NewComponent(d1.NewComponentConfig("gen1", "unix"))
	if _, err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c1.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		if d1.PState().Fetch("ramsey/R3/best") != nil {
			break
		}
	}
	if d1.PState().Fetch("ramsey/R3/best") == nil {
		t.Fatal("no counter-example checkpointed")
	}
	c1.Close()
	d1.Close() // the entire application dies

	// A brand new constellation over the same trusted storage recovers it.
	d2 := startDeployment(t, DeploymentConfig{N: 5, K: 3, PStateDir: dir})
	c2 := NewComponent(d2.NewComponentConfig("gen2", "unix"))
	if _, err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	o, err := c2.Recover("ramsey/R3/best")
	if err != nil {
		t.Fatal(err)
	}
	ce, err := ramsey.DecodeCounterExample(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkCheckpointReplicationAndResume(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 9, K: 4, StepsPerCycle: 200})
	cfg1 := d.NewComponentConfig("worker-gen1", "condor")
	cfg1.WorkCheckpointKey = "condor/slot7/work"
	c1 := NewComponent(cfg1)
	if _, err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	// Run some cycles so a work unit checkpoint is published.
	if _, err := c1.RunCycles(3); err != nil {
		t.Fatal(err)
	}
	origWork := c1.Runner().Work()
	if origWork.ID == 0 {
		t.Fatal("no work assigned")
	}

	// A standby component in the same restart group: volatile-but-
	// replicated state must spread to it while the original is alive
	// (once every live holder dies, volatile state is gone — that is what
	// distinguishes it from persistent state).
	cfg2 := d.NewComponentConfig("worker-gen2", "condor")
	cfg2.WorkCheckpointKey = "condor/slot7/work"
	c2 := NewComponent(cfg2)
	if _, err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	gotIt := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !gotIt {
		if s, ok := c2.Agent().Get("condor/slot7/work"); ok && len(s.Data) > 0 {
			gotIt = true
			break
		}
		// Keep the original cycling so its checkpoint stays fresh.
		if _, err := c1.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if !gotIt {
		t.Fatal("checkpoint never replicated to the standby component")
	}
	c1.Close() // reclaimed without warning — state already replicated

	ok, err := c2.ResumeFromCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("standby had no checkpoint to resume")
	}
	w := c2.Runner().Work()
	if w.N != origWork.N || w.K != origWork.K {
		t.Fatalf("resumed wrong problem: %+v vs %+v", w, origWork)
	}
}

func TestResumeWithoutCheckpointKey(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{N: 5, K: 3})
	c := NewComponent(d.NewComponentConfig("nokey", "unix"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ResumeFromCheckpoint(); err == nil {
		t.Fatal("resume without checkpoint key must error")
	}
}

func TestCheckpointReplicatesToAllManagers(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		N: 5, K: 3,
		PStateDir:       t.TempDir(),
		ExtraPStateDirs: []string{t.TempDir()},
	})
	if len(d.PStateAddrs) != 2 {
		t.Fatalf("pstate addrs = %v", d.PStateAddrs)
	}
	c := NewComponent(d.NewComponentConfig("multi", "unix"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Checkpoint("app/replicated", "", []byte("everywhere")); err != nil {
		t.Fatal(err)
	}
	for i, ps := range d.PStates() {
		o := ps.Fetch("app/replicated")
		if o == nil || string(o.Data) != "everywhere" {
			t.Fatalf("manager %d missing the checkpoint", i)
		}
	}
}

func TestEliteSharingAcrossClients(t *testing.T) {
	// Hard problem (17 vertices, K4) so elites stay nonzero while cycling.
	d := startDeployment(t, DeploymentConfig{N: 17, K: 4, StepsPerCycle: 300})
	mk := func(id string) *Component {
		cfg := d.NewComponentConfig(id, "unix")
		cfg.EliteShareKey = "ramsey/elite/r4n17"
		cfg.SampleEdges = 8
		c := NewComponent(cfg)
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	active := mk("elite-active")
	passive := mk("elite-passive") // tracks the key but never computes
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := active.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		if s, ok := passive.Agent().Get("ramsey/elite/r4n17"); ok && len(s.Data) > 0 {
			if s.Origin != active.Addr() {
				t.Fatalf("elite origin = %q, want %q", s.Origin, active.Addr())
			}
			e, err := ramsey.DecodeElite(s.Data)
			if err != nil {
				t.Fatal(err)
			}
			if e.Coloring.N() != 17 || e.K != 4 || e.Conflicts <= 0 {
				t.Fatalf("elite = %+v", e)
			}
			return
		}
		time.Sleep(30 * time.Millisecond)
	}
	t.Fatal("elite state never replicated to the passive client")
}

func TestEliteAdoptionSolvesSearch(t *testing.T) {
	// A client grinding on the 17-vertex R(4) problem adopts a replicated
	// elite that happens to be the Paley(17) counter-example — the pool's
	// pruning hands it the solution.
	d := startDeployment(t, DeploymentConfig{N: 17, K: 4, StepsPerCycle: 100})
	cfg := d.NewComponentConfig("adopter", "unix")
	cfg.EliteShareKey = "ramsey/elite/adopt"
	cfg.SampleEdges = 8
	c := NewComponent(cfg)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunCycles(2); err != nil { // acquire work, start searching
		t.Fatal(err)
	}
	p17, _ := ramsey.Paley(17)
	elite := &ramsey.Elite{Conflicts: 0, K: 4, Coloring: p17}
	if !c.Agent().SetStamped(gossip.Stamped{
		Key: "ramsey/elite/adopt", Origin: "another-client", Data: elite.Encode(),
	}) {
		t.Fatal("injected elite rejected")
	}
	// The next cycles adopt the elite and report the counter-example.
	for i := 0; i < 10; i++ {
		if _, err := c.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		for _, sv := range d.Schedulers() {
			if len(sv.Found()) > 0 {
				if err := sv.Found()[0].Verify(); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatal("adopted elite never produced a verified counter-example")
}

func TestDeploymentObservatory(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Gossips: 2, Schedulers: 2, PStateDir: t.TempDir(),
		Observatory: true, ObsInterval: 50 * time.Millisecond,
	})
	if d.ObsAddr == "" || d.Observatory() == nil {
		t.Fatal("observatory did not start")
	}
	// The scrape set must cover the whole constellation: both gossips'
	// clique gauges become series, and both schedulers (roster hook)
	// show up as scraped daemons.
	eventually(t, 5*time.Second, func() bool {
		gossips := 0
		scheds := map[string]bool{}
		for _, k := range d.Observatory().Series().Keys() {
			if k.Metric == "clique.members" {
				gossips++
			}
			if strings.HasPrefix(k.Daemon, "sched@") {
				scheds[k.Daemon] = true
			}
		}
		return gossips == 2 && len(scheds) == 2
	}, "observatory should scrape gossips and schedulers")
	// The introspection endpoint answers with the stock rule table.
	c := wire.NewClient(2 * time.Second)
	defer c.Close()
	alerts, err := obs.FetchAlerts(c, d.ObsAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Only rules with matching series appear: with no components
	// reporting, the queue gauge never registers, so the clique watch is
	// the live one — one entry per gossip daemon, none firing.
	clique := 0
	for _, al := range alerts {
		if al.Rule == "clique-anomaly" {
			clique++
		}
		if al.Firing {
			t.Fatalf("alert firing on a healthy constellation: %+v", al)
		}
	}
	if clique != 2 {
		t.Fatalf("clique-anomaly entries = %d, want 2: %+v", clique, alerts)
	}
}
