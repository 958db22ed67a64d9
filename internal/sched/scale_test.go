package sched

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/scale"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// startShard stands up one scheduling server on the in-memory transport.
func startShard(t *testing.T, tr wire.Transport, cfg ServerConfig) *Server {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Transport = tr
	s := NewServer(cfg)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestAdmissionShedsAppletsFirst(t *testing.T) {
	tr := wire.NewMemTransport()
	// Burst of 10 with the default 20% low-priority reserve: PriLow sheds
	// once the bucket drops under 2 tokens while PriHigh drains to zero.
	s := startShard(t, tr, ServerConfig{AdmitRate: 0.001, AdmitBurst: 10})
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	defer wc.Close()

	// 9 unix reports drain the bucket to 1 token; then a java report must
	// shed while a subsequent unix report is still admitted — the reserve
	// protects computational clients from applet floods, not vice versa.
	var reports []Report
	for i := 0; i < 9; i++ {
		reports = append(reports, Report{ClientID: fmt.Sprintf("unix-%d", i), Infra: "unix"})
	}
	reports = append(reports,
		Report{ClientID: "java-0", Infra: "java"},
		Report{ClientID: "unix-9", Infra: "unix"},
		Report{ClientID: "unix-10", Infra: "unix"})
	shed := make([]bool, len(reports))
	for i, r := range reports {
		var dr Directive
		if err := wc.CallMsg(s.Addr(), MsgReport, r, &dr, time.Second); err != nil {
			t.Fatal(err)
		}
		shed[i] = dr.Kind == DirShed
	}
	for i := 0; i < 9; i++ {
		if shed[i] {
			t.Fatalf("unix report %d shed under burst", i)
		}
	}
	if !shed[9] {
		t.Fatal("java report under the reserve floor not shed")
	}
	if shed[10] {
		t.Fatal("unix report shed after java shed — reserve must favor high priority")
	}
	if !shed[11] {
		t.Fatal("unix report on an empty bucket not shed")
	}
	snap := s.Metrics().Snapshot("scale.")
	if snap.Value("scale.shed.low") != 1 || snap.Value("scale.shed.high") != 1 ||
		snap.Value("scale.shed.total") != 2 || snap.Value("scale.admit.ok") != 10 {
		t.Fatalf("scale.* telemetry wrong: %+v", snap.Samples)
	}
}

func TestRunnerRingRoutingAndFailover(t *testing.T) {
	tr := wire.NewMemTransport()
	shards := make([]*Server, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = startShard(t, tr, ServerConfig{})
		addrs[i] = shards[i].Addr()
	}
	ring := scale.NewRing(addrs, 0)

	m := telemetry.NewRegistry()
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	defer wc.Close()
	r, err := NewRunner(RunnerConfig{
		ClientID:             "ring-client",
		Infra:                "unix",
		Schedulers:           []string{"static-fallback:0"},
		MaxSchedulerFailures: 1,
		SchedulerCooldown:    time.Minute,
		Metrics:              m,
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRing(ring)

	owner := ring.Lookup("ring-client")
	if _, err := r.Cycle(); err != nil {
		t.Fatal(err)
	}
	ownerIdx := -1
	for i, a := range addrs {
		if a == owner {
			ownerIdx = i
		}
	}
	if n, _, _ := shards[ownerIdx].Stats(); n != 1 {
		t.Fatalf("owner shard %s did not receive the report", owner)
	}

	// Kill the owner: the next report must fail over to a ring successor,
	// not the static fallback.
	shards[ownerIdx].Close()
	if _, err := r.Cycle(); err != nil {
		t.Fatalf("cycle after owner death: %v", err)
	}
	succ := ring.Successors("ring-client", 2)[1]
	var succShard *Server
	for i, a := range addrs {
		if a == succ {
			succShard = shards[i]
		}
	}
	if n, _, _ := succShard.Stats(); n != 1 {
		t.Fatalf("successor shard %s did not receive the failover report", succ)
	}
	if m.Snapshot("sched.").Value("sched.client.failover") == 0 {
		t.Fatal("failover counter never incremented")
	}

	// A re-shard excluding the dead owner routes directly on first try.
	r.SetRing(ring.Remove(owner))
	if _, err := r.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot("scale.").Value("scale.ring.updates") != 2 {
		t.Fatalf("ring.updates = %d, want 2", m.Snapshot("scale.").Value("scale.ring.updates"))
	}
}

func TestDirShedRoundTrip(t *testing.T) {
	dr := Directive{Kind: DirShed}
	got, err := DecodeDirective(EncodeDirective(dr))
	if err != nil || got.Kind != DirShed {
		t.Fatalf("got %+v, %v", got, err)
	}
}
