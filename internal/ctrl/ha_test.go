package ctrl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/wire"
)

// newHACtrl builds one controller on the shared transport/clock with a
// durable pstate quorum behind it — the configuration every HA test
// exercises.
func newHACtrl(t *testing.T, tr wire.Transport, clock *vclock, id string, pstates []string, cfg ServerConfig) *Server {
	t.Helper()
	cfg.ListenAddr = "mem-" + id
	cfg.Transport = tr
	cfg.Interval = -1
	cfg.Metrics = clock.registry()
	cfg.CallTimeout = time.Second
	cfg.ID = id
	cfg.PStates = pstates
	if cfg.Detector.MinStdDev == 0 {
		cfg.Detector.MinStdDev = 5 * time.Millisecond
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestSplitBrainFencing models the moment a partition heals wrong: two
// controllers each believe they lead (two solo controllers sharing one
// durable store — exactly the state a partitioned clique leaves a stale
// leader and its successor in). The epoch register must let exactly one
// of them act: the controller holding the higher epoch reconciles, the
// stale one is rejected at the pstate quorum and stands down.
func TestSplitBrainFencing(t *testing.T) {
	tr := wire.NewMemTransport()
	_, psAddrs := newMemPStates(t, tr, 3)
	clock := newVClock()

	var mu sync.Mutex
	restartedBy := []string{}
	hook := func(who string) func(Member) error {
		return func(Member) error {
			mu.Lock()
			restartedBy = append(restartedBy, who)
			mu.Unlock()
			return nil
		}
	}
	a := newHACtrl(t, tr, clock, "ctrl-a", psAddrs, ServerConfig{Restart: hook("a"), Logf: t.Logf})
	b := newHACtrl(t, tr, clock, "ctrl-b", psAddrs, ServerConfig{Restart: hook("b"), Logf: t.Logf})

	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)
	m := Member{ID: "sched1", Role: RoleSched}
	var seq uint64
	for i := 0; i < 10; i++ {
		seq++
		hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
		for _, addr := range []string{a.Addr(), b.Addr()} {
			if err := SendHeartbeat(wc, addr, hb, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}

	// Both "leaders" fence in turn: a claims epoch 1, b supersedes with 2.
	a.Tick()
	if got := a.Epoch(); got != 1 {
		t.Fatalf("a epoch = %d, want 1", got)
	}
	b.Tick()
	if got := b.Epoch(); got != 2 {
		t.Fatalf("b epoch = %d, want 2", got)
	}

	// The member dies on both detectors; only b's actions may land.
	clock.advance(time.Second)
	b.Tick()
	a.Tick()
	mu.Lock()
	got := append([]string(nil), restartedBy...)
	mu.Unlock()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("restarts by %v, want exactly [b]", got)
	}
	if role := a.Role(); role != CtrlDeposed {
		t.Fatalf("stale leader role = %s, want %s", role, CtrlDeposed)
	}
	if n := a.Metrics().Counter("ctrl.fence.rejected").Value(); n == 0 {
		t.Fatal("ctrl.fence.rejected never incremented on the stale leader")
	}
	// The stale leader stays down across further ticks: in solo mode no
	// new view ever re-arms acquisition, so it never acts again.
	clock.advance(time.Second)
	a.Tick()
	a.Tick()
	mu.Lock()
	n := len(restartedBy)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("stale leader acted after being fenced out: %v", restartedBy)
	}
	// Status reporting reflects the split verdict.
	st, err := FetchStatus(wc, b.Addr(), time.Second)
	if err != nil || st.Role != CtrlLeader || st.Epoch != 2 || st.ControllerID != "ctrl-b" {
		t.Fatalf("b status: %+v err=%v", st, err)
	}
}

// waitStatus polls a controller's status until cond holds or the
// deadline passes.
func waitStatus(t *testing.T, wc *wire.Client, addr string, d time.Duration, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(d)
	var last Status
	for time.Now().Before(deadline) {
		st, err := FetchStatus(wc, addr, time.Second)
		if err == nil {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("status condition never held at %s; last %+v", addr, last)
	return Status{}
}

// TestClusterElectionAndFailover runs three controllers as a real
// replicated group — clique election over the wire, epoch fencing in
// the pstate quorum — kills the elected leader, and requires a follower
// to take over with a strictly higher epoch within the takeover bound.
func TestClusterElectionAndFailover(t *testing.T) {
	tr := wire.NewMemTransport()
	_, psAddrs := newMemPStates(t, tr, 3)
	peers := []string{"mem-ha1", "mem-ha2", "mem-ha3"}
	srvs := make([]*Server, 3)
	for i, addr := range peers {
		srv, err := NewServer(ServerConfig{
			ListenAddr:       addr,
			Transport:        tr,
			Interval:         20 * time.Millisecond,
			ElectionInterval: 10 * time.Millisecond,
			CallTimeout:      500 * time.Millisecond,
			ID:               fmt.Sprintf("ha%d", i+1),
			Peers:            peers,
			PStates:          psAddrs,
			Logf:             t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs[i] = srv
	}
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)

	// The min-address member wins the election and fences.
	st := waitStatus(t, wc, srvs[0].Addr(), 5*time.Second, func(st Status) bool {
		return st.Role == CtrlLeader && st.Epoch > 0
	})
	firstEpoch := st.Epoch
	// Followers agree on who leads.
	waitStatus(t, wc, srvs[1].Addr(), 5*time.Second, func(st Status) bool {
		return st.Role == CtrlFollower && st.LeaderID == peers[0]
	})

	// Kill the leader: the next-lowest address succeeds it under a
	// strictly higher fencing epoch.
	srvs[0].Close()
	st = waitStatus(t, wc, srvs[1].Addr(), 5*time.Second, func(st Status) bool {
		return st.Role == CtrlLeader && st.Epoch > firstEpoch
	})
	if st.LeaderID != peers[1] {
		t.Fatalf("successor leader ID = %s, want %s", st.LeaderID, peers[1])
	}
	// The remaining follower converges on the new leader.
	waitStatus(t, wc, srvs[2].Addr(), 5*time.Second, func(st Status) bool {
		return st.Role == CtrlFollower && st.LeaderID == peers[1]
	})
}

// TestRolloutResumesAfterLeaderFailover kills the leader mid-rollout
// and requires its successor to resume from the persisted in-flight
// marker: the member the dead leader was rolling is not touched again,
// and the remaining members are still rolled one at a time.
func TestRolloutResumesAfterLeaderFailover(t *testing.T) {
	tr := wire.NewMemTransport()
	_, psAddrs := newMemPStates(t, tr, 3)
	clock := newVClock()
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)

	var mu sync.Mutex
	applied := []string{}
	apply := func(m Member, spec ServiceSpec) error {
		mu.Lock()
		applied = append(applied, m.ID)
		mu.Unlock()
		return nil
	}
	spec := &FleetSpec{Version: 1, Services: []ServiceSpec{
		{Role: "worker", Count: 3, ConfigVer: 2, Config: []byte("v2")},
	}}
	members := []Member{
		{ID: "w1", Role: "worker", ConfigVer: 1},
		{ID: "w2", Role: "worker", ConfigVer: 1},
		{ID: "w3", Role: "worker", ConfigVer: 1},
	}
	var seq uint64
	beatAll := func(addr string, cfgVers map[string]uint64) {
		seq++
		for _, m := range members {
			if v, ok := cfgVers[m.ID]; ok {
				m.ConfigVer = v
			}
			hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
			if err := SendHeartbeat(wc, addr, hb, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}

	a := newHACtrl(t, tr, clock, "ro-a", psAddrs, ServerConfig{Spec: spec, ApplyConfig: apply, Logf: t.Logf})
	for i := 0; i < 10; i++ {
		beatAll(a.Addr(), nil)
	}
	a.Tick()
	mu.Lock()
	if len(applied) != 1 || applied[0] != "w1" {
		mu.Unlock()
		t.Fatalf("first rollout step applied %v, want [w1]", applied)
	}
	mu.Unlock()

	// The leader dies with w1 mid-roll (it has not yet reported v2).
	a.Close()
	b := newHACtrl(t, tr, clock, "ro-b", psAddrs, ServerConfig{ApplyConfig: apply, Logf: t.Logf})
	for i := 0; i < 10; i++ {
		beatAll(b.Addr(), nil)
	}
	b.Tick()
	b.Tick()
	mu.Lock()
	if len(applied) != 1 {
		mu.Unlock()
		t.Fatalf("successor ignored the in-flight marker: applied %v", applied)
	}
	mu.Unlock()

	// w1 converges; the successor then finishes the rollout one member
	// at a time, in ID order, without double-applying anyone.
	vers := map[string]uint64{"w1": 2}
	for i := 0; i < 10; i++ {
		beatAll(b.Addr(), vers)
		b.Tick()
		mu.Lock()
		for _, id := range applied {
			vers[id] = 2
		}
		done := len(applied) == 3
		mu.Unlock()
		if done {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(applied) != 3 || applied[0] != "w1" || applied[1] != "w2" || applied[2] != "w3" {
		t.Fatalf("rollout after failover applied %v, want [w1 w2 w3]", applied)
	}
}

// TestAutoscalerGrowsAndShrinksWithHysteresis drives the forecast-fed
// autoscaler with a synthetic load signal: sustained overload grows the
// worker role one replica per decision round (never jumping straight to
// the target), and a load drop shrinks it only after DownStreak
// consecutive quiet rounds — transient dips must not retire daemons.
func TestAutoscalerGrowsAndShrinksWithHysteresis(t *testing.T) {
	tr := wire.NewMemTransport()
	_, psAddrs := newMemPStates(t, tr, 3)
	clock := newVClock()
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)

	var mu sync.Mutex
	load := 250.0
	ups, downs := 0, 0
	var retired []string
	srv := newHACtrl(t, tr, clock, "as-1", psAddrs, ServerConfig{
		Spec: &FleetSpec{Version: 1, Services: []ServiceSpec{
			{Role: "worker", Count: 1, Min: 1, Max: 3},
		}},
		Load: func(role string) (float64, bool) {
			mu.Lock()
			defer mu.Unlock()
			return load, true
		},
		ScaleUp: func(role string) error {
			mu.Lock()
			ups++
			mu.Unlock()
			return nil
		},
		ScaleDown: func(m Member) error {
			mu.Lock()
			downs++
			retired = append(retired, m.ID)
			mu.Unlock()
			return nil
		},
		TargetLoad:    100,
		UpStreak:      2,
		DownStreak:    3,
		ScaleCooldown: time.Millisecond,
		Logf:          t.Logf,
	})

	live := []Member{{ID: "w1", Role: "worker"}}
	var seq uint64
	beatAll := func() {
		seq++
		for _, m := range live {
			hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
			if err := SendHeartbeat(wc, srv.Addr(), hb, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}
	establish := func() {
		for i := 0; i < 10; i++ {
			beatAll()
		}
	}
	count := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.spec.Service("worker").Count
	}

	establish()
	// Overload: desired = ceil(250/100) = 3, but growth is one replica
	// per round and only after UpStreak rounds agree.
	beatAll()
	srv.Tick() // streak 1: no change yet
	if got := count(); got != 1 {
		t.Fatalf("count moved before UpStreak: %d", got)
	}
	beatAll()
	srv.Tick() // streak 2: grow to 2, actuate one start
	if got := count(); got != 2 {
		t.Fatalf("count after first grow = %d, want 2", got)
	}
	mu.Lock()
	if ups != 1 {
		mu.Unlock()
		t.Fatalf("scale-up actuations = %d, want 1", ups)
	}
	mu.Unlock()
	live = append(live, Member{ID: "w2", Role: "worker"})
	establish()
	beatAll()
	srv.Tick()
	beatAll()
	srv.Tick() // second streak completes: grow to 3
	if got := count(); got != 3 {
		t.Fatalf("count after second grow = %d, want 3", got)
	}
	live = append(live, Member{ID: "w3", Role: "worker"})
	establish()

	// Load collapses. Shrinking waits out the full DownStreak.
	mu.Lock()
	load = 10
	mu.Unlock()
	for i := 0; i < 2; i++ {
		beatAll()
		srv.Tick()
		if got := count(); got != 3 {
			t.Fatalf("count shrank after only %d quiet rounds: %d", i+1, got)
		}
		mu.Lock()
		if downs != 0 {
			mu.Unlock()
			t.Fatalf("scale-down before DownStreak: %d", downs)
		}
		mu.Unlock()
	}
	beatAll()
	srv.Tick() // third quiet round: shrink to 2, retire the newest member
	if got := count(); got != 2 {
		t.Fatalf("count after shrink = %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if downs != 1 || len(retired) != 1 || retired[0] != "w3" {
		t.Fatalf("retirements = %v (downs=%d), want [w3]", retired, downs)
	}
	if ups != 2 {
		t.Fatalf("total scale-up actuations = %d, want 2", ups)
	}
}

// TestBackoffCapAndResetAfterSustainedHealth pins the crash-loop
// back-off edges: the retry delay saturates at BackoffMax instead of
// doubling forever, and a member that stays healthy past CrashLoopReset
// has its restart history forgiven — the next failure starts from the
// base delay again.
func TestBackoffCapAndResetAfterSustainedHealth(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	f := newCtrlFixture(t, ServerConfig{
		BackoffBase:    100 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
		CrashLoopReset: 300 * time.Millisecond,
		Restart: func(m Member) error {
			mu.Lock()
			attempts++
			mu.Unlock()
			return nil
		},
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return attempts
	}
	m := Member{ID: "c1", Role: RoleComponent}
	seq := f.establish(m, 50*time.Millisecond, 10)
	f.clock.advance(time.Second) // declared dead

	// Cap: with delays 100 -> 200 -> 200 -> ... the register keeps
	// retrying every BackoffMax. Over 1.5s of dead time that is ~8
	// attempts; uncapped exponential growth would manage ~5.
	for i := 0; i < 30; i++ {
		f.srv.Tick()
		f.clock.advance(50 * time.Millisecond)
	}
	if got := count(); got < 7 {
		t.Fatalf("back-off cap not applied: only %d attempts in 1.5s", got)
	}
	if got := f.srv.Metrics().Counter("ctrl.backoffs").Value(); got == 0 {
		t.Fatal("ctrl.backoffs never incremented")
	}

	// Recovery held past CrashLoopReset forgives the history.
	for i := 0; i < 10; i++ {
		seq++
		f.beat(m, seq)
		f.srv.Tick()
		f.clock.advance(50 * time.Millisecond)
	}
	// The recovery gap widened the arrival model's variance, so a much
	// longer silence is needed to cross the phi threshold again.
	f.clock.advance(10 * time.Second) // dead again
	base := count()
	f.srv.Tick() // forgiven: restarts immediately at the base delay
	f.clock.advance(100 * time.Millisecond)
	f.srv.Tick() // and again one base delay later
	if got := count() - base; got != 2 {
		t.Fatalf("attempts after reset = %d in 100ms, want 2 (base-delay spacing)", got)
	}
}

// TestMixedVersionFleetStaysLive pins the rolling-upgrade contract: a
// release-version rollout (spec.Version) proceeds one member at a time,
// and at every intermediate step the fleet is mixed-version with every
// member still live and attested — the upgrade never takes the service
// down.
func TestMixedVersionFleetStaysLive(t *testing.T) {
	var mu sync.Mutex
	var applied []string
	vers := map[string]string{"w1": "v1", "w2": "v1", "w3": "v1"}
	f := newCtrlFixture(t, ServerConfig{
		Spec: &FleetSpec{Version: 1, Services: []ServiceSpec{
			{Role: "worker", Count: 3, Version: "v2"},
		}},
		ApplyConfig: func(m Member, spec ServiceSpec) error {
			mu.Lock()
			defer mu.Unlock()
			for _, id := range applied {
				if vers[id] != spec.Version {
					return fmt.Errorf("rollout touched %s while %s still at %s", m.ID, id, vers[id])
				}
			}
			applied = append(applied, m.ID)
			vers[m.ID] = spec.Version
			return nil
		},
	})
	members := []Member{
		{ID: "w1", Role: "worker"},
		{ID: "w2", Role: "worker"},
		{ID: "w3", Role: "worker"},
	}
	seqs := make([]uint64, 3)
	beatAll := func() {
		for i := range members {
			seqs[i]++
			mu.Lock()
			members[i].Version = vers[members[i].ID]
			mu.Unlock()
			f.beat(members[i], seqs[i])
		}
		f.clock.advance(50 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		beatAll()
	}
	sawMixed := false
	for i := 0; i < 10; i++ {
		f.srv.Tick()
		beatAll()
		// Liveness through the upgrade: every member stays attested.
		ms, err := FetchMembers(f.wc, f.srv.Addr(), time.Second)
		if err != nil || len(ms) != 3 {
			t.Fatalf("membership mid-rollout: %+v err=%v", ms, err)
		}
		old, upgraded := 0, 0
		for _, m := range ms {
			if !m.Alive {
				t.Fatalf("member %s died during rolling upgrade", m.ID)
			}
			if m.Version == "v2" {
				upgraded++
			} else {
				old++
			}
		}
		if old > 0 && upgraded > 0 {
			sawMixed = true
		}
		mu.Lock()
		done := len(applied) == 3
		mu.Unlock()
		if done {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(applied) != 3 {
		t.Fatalf("upgrade incomplete: applied=%v", applied)
	}
	if !sawMixed {
		t.Fatal("fleet was never observed mixed-version mid-rollout")
	}
}

// BenchmarkLeaderFailoverMTTR measures the leader takeover path end to
// end: kill the acting controller, wait for a follower to win the
// election and fence under a strictly higher epoch. One iteration is
// one complete kill-to-new-leader cycle over a live three-controller
// group (run with a small fixed -benchtime count).
func BenchmarkLeaderFailoverMTTR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := wire.NewMemTransport()
		psSrvs := make([]*pstate.Server, 3)
		psAddrs := make([]string, 3)
		for j := range psSrvs {
			s, err := pstate.NewServer(pstate.ServerConfig{
				ListenAddr:   fmt.Sprintf("mem-ps%d:0", j+1),
				Dir:          b.TempDir(),
				SyncInterval: time.Hour,
				Transport:    tr,
			})
			if err != nil {
				b.Fatal(err)
			}
			addr, err := s.Start()
			if err != nil {
				b.Fatal(err)
			}
			psSrvs[j] = s
			psAddrs[j] = addr
		}
		for j, s := range psSrvs {
			peers := make([]string, 0, 2)
			for k, a := range psAddrs {
				if k != j {
					peers = append(peers, a)
				}
			}
			s.SetPeers(peers)
		}
		peers := []string{"mem-bm1", "mem-bm2", "mem-bm3"}
		srvs := make([]*Server, 3)
		for j, addr := range peers {
			srv, err := NewServer(ServerConfig{
				ListenAddr:       addr,
				Transport:        tr,
				Interval:         10 * time.Millisecond,
				ElectionInterval: 10 * time.Millisecond,
				CallTimeout:      250 * time.Millisecond,
				ID:               fmt.Sprintf("bm%d", j+1),
				Peers:            peers,
				PStates:          psAddrs,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			srvs[j] = srv
		}
		wc := wire.NewClient(time.Second)
		wc.Transport = tr
		wait := func(srv *Server, cond func(Status) bool) {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st, err := FetchStatus(wc, srv.Addr(), time.Second)
				if err == nil && cond(st) {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			b.Fatal("leader condition never held")
		}
		wait(srvs[0], func(st Status) bool { return st.Role == CtrlLeader && st.Epoch > 0 })
		var epoch0 uint64
		if st, err := FetchStatus(wc, srvs[0].Addr(), time.Second); err == nil {
			epoch0 = st.Epoch
		}

		b.StartTimer()
		srvs[0].Close()
		wait(srvs[1], func(st Status) bool { return st.Role == CtrlLeader && st.Epoch > epoch0 })
		b.StopTimer()

		srvs[1].Close()
		srvs[2].Close()
		for _, s := range psSrvs {
			s.Close()
		}
		wc.Close()
		b.StartTimer()
	}
}
