package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/logsvc"
	"everyware/internal/wire"
)

// fakeDaemon is a Daemon that only counts: live is the number of
// incarnations started and not yet closed.
type fakeDaemon struct {
	addr string
	live *atomic.Int64
	once sync.Once
}

func (f *fakeDaemon) Addr() string { return f.addr }
func (f *fakeDaemon) Close()       { f.once.Do(func() { f.live.Add(-1) }) }

// fakeStart returns a StartFunc minting fakeDaemons at a fixed address.
// With entered non-nil, each start announces itself there and then waits
// on gate before returning.
func fakeStart(addr string, live *atomic.Int64, entered chan<- struct{}, gate <-chan struct{}) StartFunc {
	return func(listen string) (Daemon, error) {
		if listen != bootAddr && listen != addr {
			panic("restart at " + listen + ", booted at " + addr)
		}
		live.Add(1)
		if entered != nil {
			entered <- struct{}{}
			<-gate
		}
		return &fakeDaemon{addr: addr, live: live}, nil
	}
}

func pings(wc *wire.Client, addr string) bool {
	_, err := wc.Call(addr, &wire.Packet{Type: wire.MsgPing}, 200*time.Millisecond)
	return err == nil
}

// Restart keeps a member's ID and address — over kernel sockets and over
// in-memory pipes — and swaps only the incarnation.
func TestMemberRestartKeepsIdentity(t *testing.T) {
	for name, tr := range map[string]wire.Transport{"tcp": nil, "mem": wire.NewMemTransport()} {
		t.Run(name, func(t *testing.T) {
			tbl := new(MemberTable)
			t.Cleanup(tbl.Close)
			addr, err := tbl.Add("logd1", ctrl.RoleLogSvc, func(listen string) (Daemon, error) {
				return StartDaemon(logsvc.NewServer(logsvc.ServerConfig{ListenAddr: listen, Transport: tr}))
			})
			if err != nil {
				t.Fatal(err)
			}
			probe := wire.NewClient(time.Second)
			probe.Transport = tr
			t.Cleanup(probe.Close)
			before, _ := tbl.Get("logd1")
			if !pings(probe, addr) {
				t.Fatal("booted member not serving")
			}

			if err := tbl.Kill("logd1"); err != nil {
				t.Fatal(err)
			}
			if e, _ := tbl.Get("logd1"); e.Up || e.Daemon != before.Daemon {
				t.Fatalf("after Kill: up=%v, corpse kept=%v", e.Up, e.Daemon == before.Daemon)
			}
			if pings(probe, addr) {
				t.Fatal("killed member still serving")
			}

			if err := tbl.Restart("logd1"); err != nil {
				t.Fatal(err)
			}
			after, ok := tbl.Get("logd1")
			if !ok || after.ID != "logd1" || after.Role != ctrl.RoleLogSvc || after.Addr != addr || !after.Up {
				t.Fatalf("after Restart: %+v (booted at %s)", after, addr)
			}
			if after.Daemon == before.Daemon || after.Daemon.Addr() != addr {
				t.Fatalf("incarnation not replaced in place: %s", after.Daemon.Addr())
			}
			if !pings(probe, addr) {
				t.Fatal("restarted member not serving at its address")
			}
			if got := tbl.Addrs(ctrl.RoleLogSvc); !slices.Equal(got, []string{addr}) {
				t.Fatalf("role addresses %v, want [%s]", got, addr)
			}
		})
	}
}

// Every role of a full constellation dies and comes back in place through
// the table, and comes back configured: a roster replica with its sibling
// peers, a Gossip back in the whole pool, the controller group with an
// elected, fenced leader.
func TestMemberKillRestartEveryRole(t *testing.T) {
	d := startDeployment(t, DeploymentConfig{
		Gossips:           3,
		Schedulers:        2,
		PStateDir:         t.TempDir(),
		ExtraPStateDirs:   []string{t.TempDir(), t.TempDir()},
		StandbyPStateDirs: []string{t.TempDir()},
		Controller:        true,
		Controllers:       3,
		Transport:         wire.NewMemTransport(),
	})
	probe := wire.NewClient(time.Second)
	probe.Transport = d.transport
	t.Cleanup(probe.Close)

	entries := d.members.Entries("")
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	want := []string{"logd1", "g1", "g2", "g3", "sched1", "sched2",
		"pstate1", "pstate2", "pstate3", "pstate4", "ctrl1", "ctrl2", "ctrl3"}
	if !slices.Equal(ids, want) {
		t.Fatalf("member IDs %v, want %v", ids, want)
	}
	for _, e := range entries {
		if err := d.members.Kill(e.ID); err != nil {
			t.Fatalf("kill %s: %v", e.ID, err)
		}
		if pings(probe, e.Addr) {
			t.Fatalf("%s still serving after Kill", e.ID)
		}
		if err := d.members.Restart(e.ID); err != nil {
			t.Fatalf("restart %s: %v", e.ID, err)
		}
		if now, _ := d.members.Get(e.ID); now.Addr != e.Addr || !now.Up || now.Daemon == e.Daemon {
			t.Fatalf("%s after restart: %+v", e.ID, now)
		}
		if !pings(probe, e.Addr) {
			t.Fatalf("%s not serving at %s after Restart", e.ID, e.Addr)
		}
	}

	for _, ps := range d.PStates() {
		if got := ps.Peers(); !slices.Equal(got, Without(d.PStateAddrs, ps.Addr())) {
			t.Errorf("restarted replica %s peers %v, want its siblings in %v", ps.Addr(), got, d.PStateAddrs)
		}
	}
	if got := d.StandbyPStates()[0].Peers(); len(got) != 0 {
		t.Errorf("restarted standby has peers %v, want none", got)
	}
	eventually(t, 15*time.Second, func() bool {
		for _, g := range d.GossipServers() {
			if len(g.PoolView().Members) != 3 {
				return false
			}
		}
		return true
	}, "restarted Gossip pool never re-formed")
	eventually(t, 15*time.Second, func() bool {
		l := d.LeaderController()
		return l != nil && l.Epoch() > 0
	}, "restarted controller group never elected a fenced leader")
}

// A closed table refuses to start anything, and what it held is gone.
func TestMemberTableRefusesAfterClose(t *testing.T) {
	var live atomic.Int64
	tbl := new(MemberTable)
	if _, err := tbl.Add("x1", "fake", fakeStart("x:1", &live, nil, nil)); err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	tbl.Close()
	if err := tbl.Restart("x1"); err == nil {
		t.Error("Restart after Close succeeded")
	}
	if _, err := tbl.Add("x2", "fake", fakeStart("x:2", &live, nil, nil)); err == nil {
		t.Error("Add after Close succeeded")
	}
	if err := tbl.Kill("x1"); err == nil {
		t.Error("Kill after Close succeeded")
	}
	if n := live.Load(); n != 0 {
		t.Errorf("%d daemons alive after Close", n)
	}
}

// Close arriving while a restart hook is inside a member's StartFunc:
// Close waits for it, the restart is refused, and the daemon it started
// does not outlive the table.
func TestMemberTableCloseRacesRestart(t *testing.T) {
	var live atomic.Int64
	entered, gate := make(chan struct{}), make(chan struct{})
	tbl := new(MemberTable)
	go func() { <-entered; gate <- struct{}{} }() // let the boot through
	if _, err := tbl.Add("x1", "fake", fakeStart("x:1", &live, entered, gate)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("y1", "fake", fakeStart("y:1", &live, nil, nil)); err != nil {
		t.Fatal(err)
	}

	restarted := make(chan error, 1)
	go func() { restarted <- tbl.Restart("x1") }()
	<-entered // the hook is mid-start, holding the member
	closed := make(chan struct{})
	go func() { tbl.Close(); close(closed) }()
	// Close has taken effect once other operations are refused ...
	eventually(t, 5*time.Second, func() bool { return tbl.Kill("y1") != nil }, "Close never began")
	select {
	case <-closed:
		t.Fatal("Close returned while a restart was still starting a daemon")
	default: // ... but it has not returned: it is waiting for the restart.
	}
	gate <- struct{}{}
	if err := <-restarted; err == nil {
		t.Error("Restart racing Close reported success")
	}
	<-closed
	if n := live.Load(); n != 0 {
		t.Errorf("%d daemons alive after Close raced a Restart", n)
	}

	// The same under load: hooks hammering Restart while Close runs.
	tbl = new(MemberTable)
	for _, id := range []string{"a1", "b1", "c1"} {
		if _, err := tbl.Add(id, "fake", fakeStart(id, &live, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range []string{"a1", "b1", "c1", "a1", "b1", "c1"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tbl.Restart(id) == nil {
			}
		}()
	}
	tbl.Close()
	wg.Wait()
	if n := live.Load(); n != 0 {
		t.Errorf("%d daemons alive after Close raced restart loops", n)
	}
}

// Close returns the process to where it was before boot — with the
// controllers busy restarting daemons when it arrives. Nothing is
// resurrected and no goroutine is left behind.
func TestDeploymentCloseLeavesNothingRunning(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d, err := StartDeployment(DeploymentConfig{
		Gossips:           3,
		Schedulers:        2,
		PStateDir:         t.TempDir(),
		ExtraPStateDirs:   []string{t.TempDir(), t.TempDir()},
		StandbyPStateDirs: []string{t.TempDir()},
		Controller:        true,
		Controllers:       3,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	restarts := func() (n int64) {
		for _, cs := range d.Controllers() {
			n += cs.Metrics().Snapshot("ctrl.restarts").Value("ctrl.restarts")
		}
		return n
	}
	eventually(t, 10*time.Second, func() bool {
		l := d.LeaderController()
		return l != nil && l.Epoch() > 0
	}, "no controller won the election")
	var addrs []string
	for _, e := range d.members.Entries("") {
		addrs = append(addrs, e.Addr)
		if e.Role == ctrl.RoleSched || e.Role == ctrl.RoleGossip {
			e.Daemon.Close() // behind the table's back: the controllers must notice
		}
	}
	eventually(t, 20*time.Second, func() bool { return restarts() >= 1 }, "controllers never began healing")
	d.Close() // four more corpses are still waiting for their restart

	probe := wire.NewClient(time.Second)
	for _, a := range addrs {
		if pings(probe, a) {
			t.Errorf("daemon at %s serving after Close", a)
		}
	}
	probe.Close()
	eventually(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
		"goroutines never returned to the pre-boot baseline")
}
