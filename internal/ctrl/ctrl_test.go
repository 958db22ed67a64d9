package ctrl

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"everyware/internal/gossip"
	"everyware/internal/pstate"
	"everyware/internal/wire"
)

func TestFleetSpecRoundTrip(t *testing.T) {
	in := &FleetSpec{
		Version: 7,
		Services: []ServiceSpec{
			{Role: RoleSched, Count: 2, ConfigVer: 3, Config: []byte("lease=5s")},
			{Role: RolePState, Count: 3},
		},
	}
	out, err := DecodeFleetSpec(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != 7 || len(out.Services) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if s := out.Service(RoleSched); s == nil || s.Count != 2 || s.ConfigVer != 3 || !bytes.Equal(s.Config, []byte("lease=5s")) {
		t.Fatalf("sched spec: %+v", s)
	}
	if out.Service("nope") != nil {
		t.Fatal("undeclared role resolved")
	}
	if _, err := DecodeFleetSpec([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestHeartbeatAndMembershipCodecs(t *testing.T) {
	hb := Heartbeat{Member: Member{ID: "sched1", Role: RoleSched, Addr: "127.0.0.1:9", ConfigVer: 2}, Seq: 41, Unix: 12345}
	got, err := DecodeHeartbeat(EncodeHeartbeat(hb))
	if err != nil || got != hb {
		t.Fatalf("heartbeat round trip: %+v err=%v", got, err)
	}
	table := []MemberStatus{
		{Member: hb.Member, Alive: true, Phi: 0.25, LastSeenUnixNanos: 99, Beats: 41},
		{Member: Member{ID: "p1", Role: RolePState, Addr: "a"}, Alive: false, Phi: 100},
	}
	back, err := DecodeMembership(EncodeMembership(table))
	if err != nil || len(back) != 2 || back[0] != table[0] || back[1] != table[1] {
		t.Fatalf("membership round trip: %+v err=%v", back, err)
	}
	st := Status{SpecVersion: 3, Roster: []string{"a", "b"}, Standbys: []string{"c"},
		Live: 5, Dead: 1, Restarts: 2, Promotions: 1, Rollouts: 4, Backoffs: 3}
	gotSt, err := DecodeStatus(EncodeStatus(st))
	if err != nil || gotSt.SpecVersion != 3 || len(gotSt.Roster) != 2 || len(gotSt.Standbys) != 1 ||
		gotSt.Live != 5 || gotSt.Dead != 1 || gotSt.Restarts != 2 || gotSt.Promotions != 1 ||
		gotSt.Rollouts != 4 || gotSt.Backoffs != 3 {
		t.Fatalf("status round trip: %+v err=%v", gotSt, err)
	}
}

func TestRosterEncodeDecode(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3"}
	got, err := DecodeRoster(EncodeRoster(addrs))
	if err != nil || len(got) != 3 || got[0] != "a:1" || got[2] != "c:3" {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := DecodeRoster([]byte{1}); err == nil {
		t.Fatal("garbage must fail")
	}
	empty, err := DecodeRoster(EncodeRoster(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty roster: %v, %v", empty, err)
	}
	// A count the payload cannot back — three addresses need at least
	// twelve bytes, eight follow — is refused before anything is
	// allocated for it, not discovered one address at a time.
	hostile := append([]byte{0, 0, 0, 3}, make([]byte, 8)...)
	if _, err := DecodeRoster(hostile); err == nil || !strings.Contains(err.Error(), "count 3 exceeds") {
		t.Fatalf("count larger than len(payload)/4 must be rejected by the count check, got %v", err)
	}
}

// newMemPStates starts n pstate managers on a shared in-process
// transport, fully peered, with anti-entropy on manual trigger only.
func newMemPStates(t *testing.T, tr wire.Transport, n int) ([]*pstate.Server, []string) {
	t.Helper()
	srvs := make([]*pstate.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		s, err := pstate.NewServer(pstate.ServerConfig{
			ListenAddr:   fmt.Sprintf("mem-ps%d:0", i+1),
			Dir:          t.TempDir(),
			SyncInterval: time.Hour,
			Transport:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		srvs[i] = s
		addrs[i] = addr
	}
	for i, s := range srvs {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s.SetPeers(peers)
	}
	return srvs, addrs
}

func TestSpecStoredDurablyAndValidated(t *testing.T) {
	tr := wire.NewMemTransport()
	_, addrs := newMemPStates(t, tr, 3)
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)
	rs, err := pstate.NewReplicaSet(wc, pstate.ReplicaSetConfig{Addrs: addrs, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := LoadSpec(rs); err != nil || found {
		t.Fatalf("spec before store: found=%v err=%v", found, err)
	}
	spec := &FleetSpec{Version: 1, Services: []ServiceSpec{{Role: RoleSched, Count: 2}}}
	if err := StoreSpec(rs, spec); err != nil {
		t.Fatal(err)
	}
	got, found, err := LoadSpec(rs)
	if err != nil || !found || got.Version != 1 {
		t.Fatalf("spec load: %+v found=%v err=%v", got, found, err)
	}
	// The class validator runs on every replica: a corrupt spec is
	// refused at ingest, not discovered at decode time.
	if _, err := rs.Store(SpecObjectName, SpecClass, []byte("not-a-spec")); err == nil {
		t.Fatal("corrupt spec accepted")
	}
}

// ctrlFixture wires a controller plus helpers on one mem transport,
// driven entirely by a virtual clock and manual Tick calls.
type ctrlFixture struct {
	t     *testing.T
	tr    wire.Transport
	clock *vclock
	srv   *Server
	wc    *wire.Client
}

func newCtrlFixture(t *testing.T, cfg ServerConfig) *ctrlFixture {
	t.Helper()
	f := &ctrlFixture{t: t, tr: wire.NewMemTransport(), clock: newVClock()}
	cfg.ListenAddr = "mem-ctrl:0"
	cfg.Transport = f.tr
	cfg.Interval = -1 // no background loop: tests call Tick
	cfg.Metrics = f.clock.registry()
	cfg.CallTimeout = time.Second
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
	f.srv = srv
	f.wc = wire.NewClient(time.Second)
	f.wc.Transport = f.tr
	t.Cleanup(f.wc.Close)
	return f
}

// beat delivers one attested heartbeat for m without a probe.
func (f *ctrlFixture) beat(m Member, seq uint64) {
	f.t.Helper()
	hb := Heartbeat{Member: m, Seq: seq, Unix: f.clock.now().UnixNano()}
	if err := SendHeartbeat(f.wc, f.srv.Addr(), hb, time.Second); err != nil {
		f.t.Fatal(err)
	}
}

// establish feeds enough beats that the detector has a model for m.
func (f *ctrlFixture) establish(m Member, interval time.Duration, n int) uint64 {
	var seq uint64
	for i := 0; i < n; i++ {
		seq++
		f.beat(m, seq)
		f.clock.advance(interval)
	}
	return seq
}

func TestControllerRestartsDeadMember(t *testing.T) {
	var mu sync.Mutex
	var restarted []string
	f := newCtrlFixture(t, ServerConfig{
		BackoffBase: 200 * time.Millisecond,
		Restart: func(m Member) error {
			mu.Lock()
			restarted = append(restarted, m.ID)
			mu.Unlock()
			return nil
		},
	})
	m := Member{ID: "sched1", Role: RoleSched} // no Addr: no ping short-circuit
	f.establish(m, 50*time.Millisecond, 10)
	f.srv.Tick()
	members, err := FetchMembers(f.wc, f.srv.Addr(), time.Second)
	if err != nil || len(members) != 1 || !members[0].Alive {
		t.Fatalf("membership after beats: %+v err=%v", members, err)
	}
	// Silence long past the declare-dead bound, then reconcile.
	f.clock.advance(time.Second)
	f.srv.Tick()
	mu.Lock()
	n := len(restarted)
	mu.Unlock()
	if n != 1 || restarted[0] != "sched1" {
		t.Fatalf("restart hook calls: %v", restarted)
	}
	if got := f.srv.Metrics().Counter("ctrl.restarts").Value(); got != 1 {
		t.Fatalf("ctrl.restarts = %d", got)
	}
	// The member comes back and beats again: recovery is recorded with
	// its repair time.
	f.beat(m, 100)
	f.srv.Tick()
	members, _ = FetchMembers(f.wc, f.srv.Addr(), time.Second)
	if len(members) != 1 || !members[0].Alive {
		t.Fatalf("membership after recovery: %+v", members)
	}
	snap := f.srv.Metrics().Snapshot("ctrl.mttr")
	if sm, ok := snap.Find("ctrl.mttr"); !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatalf("mttr histogram missing: %+v", snap.Samples)
	}
}

func TestCrashLoopBackoff(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	f := newCtrlFixture(t, ServerConfig{
		BackoffBase: 200 * time.Millisecond,
		BackoffMax:  time.Second,
		Restart: func(m Member) error {
			mu.Lock()
			attempts++
			mu.Unlock()
			return fmt.Errorf("still broken") // the member never comes back
		},
	})
	m := Member{ID: "c1", Role: RoleComponent}
	f.establish(m, 50*time.Millisecond, 10)
	f.clock.advance(time.Second) // declared dead
	ticks := 40
	for i := 0; i < ticks; i++ {
		f.srv.Tick()
		f.clock.advance(50 * time.Millisecond) // 2s of wall time total
	}
	mu.Lock()
	n := attempts
	mu.Unlock()
	// Without back-off every tick would retry (40 attempts). With base
	// 200ms doubling to a 1s cap, 2s of dead time allows only a handful.
	if n >= ticks/2 {
		t.Fatalf("back-off not applied: %d attempts in %d ticks", n, ticks)
	}
	if n < 2 {
		t.Fatalf("restart never retried: %d attempts", n)
	}
	if got := f.srv.Metrics().Counter("ctrl.backoffs").Value(); got == 0 {
		t.Fatal("ctrl.backoffs never incremented")
	}
	if got := f.srv.Metrics().Counter("ctrl.restart.errors").Value(); got == 0 {
		t.Fatal("ctrl.restart.errors never incremented")
	}
}

func TestStandbyPromotionBackfillsAndRepoints(t *testing.T) {
	tr := wire.NewMemTransport()
	srvs, addrs := newMemPStates(t, tr, 4)
	roster, standbyAddr := addrs[:3], addrs[3]
	// The standby starts outside the quorum: no peers, no data.
	srvs[3].SetPeers(nil)

	clock := newVClock()
	ctrlSrv, err := NewServer(ServerConfig{
		ListenAddr:  "mem-ctrl:0",
		Transport:   tr,
		Interval:    -1,
		Metrics:     clock.registry(),
		CallTimeout: time.Second,
		PStates:     roster,
		Detector:    DetectorConfig{MinStdDev: 5 * time.Millisecond},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrlSrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrlSrv.Close)

	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)
	rs, err := pstate.NewReplicaSet(wc, pstate.ReplicaSetConfig{Addrs: roster, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("ckpt/%d", i)
		if _, err := rs.Store(name, "test", []byte(name)); err != nil {
			t.Fatalf("store %s: %v", name, err)
		}
	}

	// All four pstate members heartbeat (the standby announces itself
	// simply by beating with a non-roster address).
	members := make([]Member, 4)
	for i, a := range addrs {
		members[i] = Member{ID: fmt.Sprintf("pstate%d", i+1), Role: RolePState, Addr: a}
	}
	var seq uint64
	for i := 0; i < 10; i++ {
		seq++
		for _, m := range members {
			hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
			if err := SendHeartbeat(wc, ctrlSrv.Addr(), hb, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}
	ctrlSrv.Tick()
	st, err := FetchStatus(wc, ctrlSrv.Addr(), time.Second)
	if err != nil || len(st.Roster) != 3 || len(st.Standbys) != 1 || st.Standbys[0] != standbyAddr {
		t.Fatalf("pre-kill status: %+v err=%v", st, err)
	}

	// Kill replica 2; the others (and the standby) keep beating, so only
	// the corpse accumulates silence past the declare-dead bound.
	srvs[1].Close()
	for i := 0; i < 20; i++ {
		seq++
		for j, m := range members {
			if j == 1 {
				continue
			}
			hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
			if err := SendHeartbeat(wc, ctrlSrv.Addr(), hb, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}
	ctrlSrv.Tick()

	want := []string{addrs[0], standbyAddr, addrs[2]}
	got := ctrlSrv.Roster()
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("post-promotion roster = %v, want %v", got, want)
	}
	if n := ctrlSrv.Metrics().Counter("ctrl.promotions").Value(); n != 1 {
		t.Fatalf("ctrl.promotions = %d", n)
	}
	// The promoted standby was backfilled through the forced anti-entropy
	// round: every acked checkpoint is now on it.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("ckpt/%d", i)
		o, found, err := pstate.PullObject(wc, standbyAddr, name, time.Second)
		if err != nil || !found || string(o.Data) != name {
			t.Fatalf("standby missing %s: found=%v err=%v", name, found, err)
		}
	}
	// The survivors' anti-entropy peer lists now name the standby, not
	// the corpse.
	for _, i := range []int{0, 2} {
		for _, p := range srvs[i].Peers() {
			if p == addrs[1] {
				t.Fatalf("replica %d still peers with dead %s", i+1, addrs[1])
			}
		}
	}
	// Promotion repair time was recorded.
	snap := ctrlSrv.Metrics().Snapshot("ctrl.mttr.promote")
	if sm, ok := snap.Find("ctrl.mttr.promote"); !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatal("promotion MTTR not recorded")
	}
}

func TestRolloutOneAtATimeBehindHealthGate(t *testing.T) {
	var mu sync.Mutex
	var applied []string
	vers := map[string]uint64{"w1": 1, "w2": 1, "w3": 1}
	f := newCtrlFixture(t, ServerConfig{
		Spec: &FleetSpec{Version: 1, Services: []ServiceSpec{
			{Role: "worker", Count: 3, ConfigVer: 2, Config: []byte("v2")},
		}},
		ApplyConfig: func(m Member, spec ServiceSpec) error {
			mu.Lock()
			defer mu.Unlock()
			// One-at-a-time invariant: every previously applied member
			// already reports the target version.
			for _, id := range applied {
				if vers[id] < spec.ConfigVer {
					return fmt.Errorf("rollout touched %s while %s still at v%d", m.ID, id, vers[id])
				}
			}
			applied = append(applied, m.ID)
			vers[m.ID] = spec.ConfigVer
			return nil
		},
	})
	// Three live worker daemons on the fixture transport, so the rollout
	// health gate has something real to ping and scrape.
	members := make([]Member, 3)
	for i := range members {
		svc := wire.NewService(wire.ServiceConfig{
			Name:       "worker",
			ListenAddr: fmt.Sprintf("mem-w%d:0", i),
			Transport:  f.tr,
		})
		addr, err := svc.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		members[i] = Member{ID: fmt.Sprintf("w%d", i+1), Role: "worker", Addr: addr, ConfigVer: 1}
	}
	seqs := make([]uint64, 3)
	beatAll := func() {
		for i := range members {
			seqs[i]++
			members[i].ConfigVer = vers[members[i].ID]
			f.beat(members[i], seqs[i])
		}
		f.clock.advance(50 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		beatAll()
	}
	// Each tick may advance the rollout by at most one member; a member's
	// new version only becomes visible through its next heartbeat.
	for i := 0; i < 10; i++ {
		f.srv.Tick()
		beatAll()
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
		t.Fatalf("rollout incomplete: applied=%v", applied)
	}
	if got := f.srv.Metrics().Counter("ctrl.rollouts").Value(); got != 3 {
		t.Fatalf("ctrl.rollouts = %d", got)
	}
	if got := f.srv.Metrics().Counter("ctrl.rollout.errors").Value(); got != 0 {
		t.Fatalf("ctrl.rollout.errors = %d", got)
	}
}

func TestControllerPublishesMembershipAndRosterOverGossip(t *testing.T) {
	tr := wire.NewMemTransport()
	g := gossip.NewServer(gossip.ServerConfig{
		ListenAddr:   "mem-g1:0",
		SyncInterval: 20 * time.Millisecond,
		Transport:    tr,
	})
	gAddr, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	_, addrs := newMemPStates(t, tr, 3)
	clock := newVClock()
	ctrlSrv, err := NewServer(ServerConfig{
		ListenAddr:  "mem-ctrl:0",
		Transport:   tr,
		Interval:    -1,
		Metrics:     clock.registry(),
		CallTimeout: time.Second,
		Gossips:     []string{gAddr},
		PStates:     addrs,
		Detector:    DetectorConfig{MinStdDev: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrlSrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrlSrv.Close)

	// A subscriber agent tracks both keys through the same pool.
	subSvc := wire.NewService(wire.ServiceConfig{Name: "sub", ListenAddr: "mem-sub:0", Transport: tr})
	subAddr, err := subSvc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subSvc.Close() })
	sub := gossip.NewAgent(subSvc.Server(), subAddr)
	gotRoster := make(chan []string, 8)
	if err := sub.Track(PStateRosterKey, gossip.CmpCounter, func(s gossip.Stamped) {
		if roster, err := DecodeRoster(s.Data); err == nil {
			gotRoster <- roster
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Track(MembershipKey, gossip.CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := sub.Register(subSvc.Client(), gAddr, PStateRosterKey, gossip.CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sub.Register(subSvc.Client(), gAddr, MembershipKey, gossip.CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}

	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)
	m := Member{ID: "pstate1", Role: RolePState, Addr: addrs[0]}
	var seq uint64
	for i := 0; i < 5; i++ {
		seq++
		if err := SendHeartbeat(wc, ctrlSrv.Addr(), Heartbeat{Member: m, Seq: seq}, time.Second); err != nil {
			t.Fatal(err)
		}
		clock.advance(50 * time.Millisecond)
	}
	ctrlSrv.Tick()

	// The pool's sync rounds deliver the roster to the subscriber.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case roster := <-gotRoster:
			if len(roster) == 3 && roster[0] == addrs[0] {
				// Membership arrives over the same path.
				if s, ok := sub.Get(MembershipKey); ok {
					if table, err := DecodeMembership(s.Data); err == nil && len(table) == 1 && table[0].ID == "pstate1" {
						return
					}
				}
				// Roster seen but membership not yet: keep waiting via poll.
				time.Sleep(10 * time.Millisecond)
				if s, ok := sub.Get(MembershipKey); ok {
					if table, err := DecodeMembership(s.Data); err == nil && len(table) == 1 {
						return
					}
				}
			}
		case <-deadline:
			t.Fatal("roster/membership never reached the subscriber")
		}
	}
}
