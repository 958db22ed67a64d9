package ctrl

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/wire"
)

// BenchmarkDetectorObserve measures one heartbeat ingest: the ring
// update plus the O(1) mean/variance maintenance. This is the per-beat
// cost the controller pays for every member in the fleet.
func BenchmarkDetectorObserve(b *testing.B) {
	c := newVClock()
	d := NewDetector(DetectorConfig{Now: c.now})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe("m")
		c.advance(time.Millisecond)
	}
}

// BenchmarkDetectorVerdict measures one liveness query against a warm
// arrival model — the per-member cost of each reconcile sweep.
func BenchmarkDetectorVerdict(b *testing.B) {
	c := newVClock()
	d := NewDetector(DetectorConfig{Now: c.now})
	beatRegularly(d, c, "m", 100*time.Millisecond, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.Alive("m") {
			b.Fatal("member died under benchmark")
		}
	}
}

// BenchmarkReconcileTick measures one quiescent reconcile round over a
// 32-member fleet: sweep every detector model, scan for dead replicas
// and stale configs, rebuild the publish reduction. Nothing is broken,
// so this is the controller's steady-state idle cost.
func BenchmarkReconcileTick(b *testing.B) {
	clock := newVClock()
	srv, err := NewServer(ServerConfig{
		ListenAddr: "mem-ctrl:0",
		Transport:  wire.NewMemTransport(),
		Interval:   -1,
		Metrics:    clock.registry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			id := fmt.Sprintf("m%02d", i)
			srv.det.Observe(id)
			srv.mu.Lock()
			srv.members[id] = Member{ID: id, Role: RoleComponent}
			srv.mu.Unlock()
		}
		clock.advance(100 * time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep the fleet alive: refresh every model each iteration so the
		// benchmark measures the all-alive sweep, not death handling.
		for j := 0; j < 32; j++ {
			srv.det.Observe(fmt.Sprintf("m%02d", j))
		}
		clock.advance(100 * time.Millisecond)
		srv.Tick()
	}
}

// BenchmarkFailoverMTTR measures the full repair pipeline for a killed
// pstate replica: death detection, standby promotion, peer repointing,
// and the forced anti-entropy backfill of a 32-object store. One
// iteration is one complete kill-to-healed cycle (run with -benchtime
// set to a small fixed count; each iteration restarts a replica).
func BenchmarkFailoverMTTR(b *testing.B) {
	tr := wire.NewMemTransport()
	clock := newVClock()
	const n = 4
	srvs := make([]*pstate.Server, n)
	addrs := make([]string, n)
	dirs := make([]string, n)
	for i := range srvs {
		dirs[i] = b.TempDir()
		s, err := pstate.NewServer(pstate.ServerConfig{
			ListenAddr:   fmt.Sprintf("mem-ps%d:0", i+1),
			Dir:          dirs[i],
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
		srvs[i] = s
		addrs[i] = addr
	}
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	ctrlSrv, err := NewServer(ServerConfig{
		ListenAddr:  "mem-ctrl:0",
		Transport:   tr,
		Interval:    -1,
		Metrics:     clock.registry(),
		CallTimeout: time.Second,
		PStates:     addrs[:3],
		Detector:    DetectorConfig{MinStdDev: 5 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctrlSrv.Start(); err != nil {
		b.Fatal(err)
	}
	defer ctrlSrv.Close()
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	defer wc.Close()
	rs, err := pstate.NewReplicaSet(wc, pstate.ReplicaSetConfig{Addrs: addrs[:3], Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := rs.Store(fmt.Sprintf("obj-%d", i), "", []byte("payload")); err != nil {
			b.Fatal(err)
		}
	}
	members := make([]Member, n)
	for i, a := range addrs {
		members[i] = Member{ID: fmt.Sprintf("pstate%d", i+1), Role: RolePState, Addr: a}
	}
	var seq uint64
	beat := func(skip int) {
		seq++
		for j, m := range members {
			if j == skip {
				continue
			}
			hb := Heartbeat{Member: m, Seq: seq, Unix: clock.now().UnixNano()}
			if err := SendHeartbeat(wc, ctrlSrv.Addr(), hb, time.Second); err != nil {
				b.Fatal(err)
			}
		}
		clock.advance(50 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		beat(-1)
	}
	ctrlSrv.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Whoever the roster names first dies; the member outside the
		// roster is the standby that replaces it.
		roster := ctrlSrv.Roster()
		victim := -1
		for j, a := range addrs {
			if a == roster[0] {
				victim = j
			}
		}
		srvs[victim].Close()
		for r := 0; r < 20; r++ {
			beat(victim)
		}
		ctrlSrv.Tick() // detect + promote + backfill
		if got := ctrlSrv.Roster(); got[0] == addrs[victim] {
			b.Fatal("promotion did not fire")
		}
		b.StopTimer()
		// Resurrect the victim as the next standby so the fleet returns to
		// 3 active + 1 spare for the next iteration.
		s, err := pstate.NewServer(pstate.ServerConfig{
			ListenAddr:   addrs[victim],
			Dir:          dirs[victim],
			SyncInterval: time.Hour,
			Transport:    tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Start(); err != nil {
			b.Fatal(err)
		}
		srvs[victim] = s
		for r := 0; r < 10; r++ {
			beat(-1)
		}
		ctrlSrv.Tick()
		b.StartTimer()
	}
}
