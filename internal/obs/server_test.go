package obs

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// startTarget brings up a scrapable daemon with a queue-depth gauge the
// tests steer.
func startTarget(t *testing.T, name string) (addr string, depth *telemetry.Gauge) {
	t.Helper()
	svc := wire.NewService(wire.ServiceConfig{Name: name, ListenAddr: "127.0.0.1:0", Silent: true})
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return addr, svc.Metrics().Gauge("sched.queue.depth")
}

// TestObservatoryEndToEnd: a real observatory scrapes two real daemons,
// a threshold rule fires on one of them, and both introspection
// messages answer over the wire.
func TestObservatoryEndToEnd(t *testing.T) {
	a1, d1 := startTarget(t, "sched")
	a2, _ := startTarget(t, "ps")

	srv := New(Config{
		ListenAddr: "127.0.0.1:0",
		Silent:     true,
		Interval:   -1, // manual rounds
		Targets:    []string{a1},
		Roster:     func() []string { return []string{a2} },
		Rules: []Rule{{
			Name: "deep-queue", Metric: "sched.queue.depth", Daemon: "sched",
			Limit: 100, For: 2, ClearAfter: 2, Role: "sched",
		}},
	})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.Tick()
	d1.Set(500)
	srv.Tick()
	srv.Tick()
	if got := srv.Firing("sched"); got != 1 {
		t.Fatalf("firing = %d, want 1; alerts %+v", got, srv.Alerts())
	}
	snap := srv.Metrics().Snapshot("")
	if snap.Value("obs.alerts.firing") != 1 || snap.Value("obs.alerts.raised") != 1 {
		t.Fatalf("gauges: %+v", snap.Samples)
	}
	if ok, tot := snap.Value("obs.scrape.ok"), int64(3*2); ok != tot {
		t.Fatalf("scrape.ok = %d, want %d (both targets every round)", ok, tot)
	}

	wc := wire.NewClient(time.Second)
	defer wc.Close()
	alerts, err := FetchAlerts(wc, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Rule != "deep-queue" ||
		alerts[0].Role != "sched" || alerts[0].Value != 500 {
		t.Fatalf("alerts over the wire = %+v", alerts)
	}

	series, err := Query(wc, addr, QueryRequest{Metric: "sched.queue.depth", MaxPoints: 2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, s := range series {
		if s.Metric == "sched.queue.depth" && len(s.Points) == 2 && s.Points[1].Value == 500 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("query answer = %+v, want trimmed depth series", series)
	}

	// Clear: queue drains, two calm rounds.
	d1.Set(0)
	srv.Tick()
	srv.Tick()
	if srv.Firing("") != 0 {
		t.Fatalf("alert did not clear: %+v", srv.Alerts())
	}
}

// TestObservatoryPersistRestore: alert transitions are persisted to
// pstate and a restarted observatory restores the table.
func TestObservatoryPersistRestore(t *testing.T) {
	ps, err := pstate.NewServer(pstate.ServerConfig{ListenAddr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	psAddr, err := ps.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	a1, d1 := startTarget(t, "sched")
	cfg := Config{
		ListenAddr: "127.0.0.1:0", Silent: true, Interval: -1,
		Targets: []string{a1},
		PStates: []string{psAddr},
		Rules:   []Rule{{Name: "deep-queue", Metric: "sched.queue.depth", Limit: 100, For: 2}},
	}
	first := New(cfg)
	if _, err := first.Start(); err != nil {
		t.Fatal(err)
	}
	d1.Set(500)
	first.Tick()
	first.Tick()
	first.Tick()
	if first.Firing("") != 1 {
		t.Fatalf("alert not firing: %+v", first.Alerts())
	}
	first.Close()

	second := New(cfg)
	if _, err := second.Start(); err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	alerts := second.Alerts()
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Fires != 1 {
		t.Fatalf("restored alerts = %+v", alerts)
	}
}

// busySnapshot builds a realistic scraped snapshot: a few dozen
// counters, gauges, and histograms.
func busySnapshot(nanos int64) telemetry.Snapshot {
	s := telemetry.Snapshot{ID: "bench", TakenUnixNanos: nanos}
	for i := 0; i < 10; i++ {
		s.Samples = append(s.Samples,
			telemetry.Sample{Name: fmt.Sprintf("c%d", i), Kind: telemetry.KindCounter, Value: nanos/1e6 + int64(i)},
			telemetry.Sample{Name: fmt.Sprintf("g%d", i), Kind: telemetry.KindGauge, Value: int64(i)},
		)
	}
	for i := 0; i < 5; i++ {
		h := &telemetry.HistogramData{Count: nanos / 1e6, SumNanos: nanos, Buckets: make([]int64, 28)}
		h.Buckets[6] = h.Count
		s.Samples = append(s.Samples, telemetry.Sample{Name: fmt.Sprintf("h%d", i), Kind: telemetry.KindHistogram, Hist: h})
	}
	return s
}

// BenchmarkSeriesIngest: folding one 25-sample snapshot into the store.
func BenchmarkSeriesIngest(b *testing.B) {
	ss := NewSeriesSet(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Ingest("bench", busySnapshot(int64(i+1)*sec))
	}
}

// BenchmarkRuleEval: one engine round over 10 daemons x 3 rules, one of
// them a forecaster-backed anomaly rule.
func BenchmarkRuleEval(b *testing.B) {
	ss := NewSeriesSet(128)
	e := NewEngine([]Rule{
		{Name: "hot", Metric: "g1", Limit: 1 << 30},
		{Name: "slo", Kind: RuleBurnRate, Metric: "c1.rate", ErrMetric: "c2.rate", Limit: 0.5},
		{Name: "odd", Kind: RuleAnomaly, Metric: "g2", Tolerance: 1},
	})
	for d := 0; d < 10; d++ {
		ss.Ingest(fmt.Sprintf("d%d", d), busySnapshot(sec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < 10; d++ {
			ss.Ingest(fmt.Sprintf("d%d", d), busySnapshot(int64(i+2)*sec))
		}
		e.Eval(ss, int64(i+2)*sec)
	}
}

// BenchmarkScrapeRound: one full observatory round against 4 live
// daemons over loopback TCP — the per-round fleet cost; divide by 4 for
// per-daemon scrape cost.
func BenchmarkScrapeRound(b *testing.B) {
	var targets []string
	for i := 0; i < 4; i++ {
		svc := wire.NewService(wire.ServiceConfig{Name: fmt.Sprintf("t%d", i), ListenAddr: "127.0.0.1:0", Silent: true})
		addr, err := svc.Start()
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		svc.Metrics().Counter("bench.requests").Add(int64(i))
		targets = append(targets, addr)
	}
	srv := New(Config{ListenAddr: "127.0.0.1:0", Silent: true, Interval: -1, Targets: targets,
		Rules: []Rule{{Name: "odd", Kind: RuleAnomaly, Metric: "wire.msgs.in.rate"}}})
	if _, err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Tick()
	}
}

const msgEcho wire.MsgType = 99

func init() { wire.Define(msgEcho, "test.echo", false) }

// benchRoundTrips measures echo round trips against a busy daemon,
// optionally with an observatory scraping it at an aggressive 2ms
// period — the scrape-overhead experiment (E17). The reported delta is
// the acceptance criterion: concurrent scraping must cost round-trip
// latency low single digits percent.
func benchRoundTrips(b *testing.B, scraped bool) {
	svc := wire.NewService(wire.ServiceConfig{Name: "victim", ListenAddr: "127.0.0.1:0", Silent: true})
	svc.Handle(msgEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		return wire.Reply(msgEcho, wire.RawMessage(req.Payload)), nil
	}))
	addr, err := svc.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	if scraped {
		srv := New(Config{ListenAddr: "127.0.0.1:0", Silent: true,
			Interval: 2 * time.Millisecond, Targets: []string{addr},
			Rules: []Rule{{Name: "odd", Kind: RuleAnomaly, Metric: "wire.server.handle.t99.ok.p99"}}})
		if _, err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
	}

	wc := wire.NewClient(time.Second)
	defer wc.Close()
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := wc.Call(addr, wire.NewRawRequest(msgEcho, payload), time.Second)
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
}

// BenchmarkRoundTripUnscraped is the baseline for the scrape-overhead
// comparison.
func BenchmarkRoundTripUnscraped(b *testing.B) { benchRoundTrips(b, false) }

// BenchmarkRoundTripScraped is the same workload under concurrent 2ms
// scraping.
func BenchmarkRoundTripScraped(b *testing.B) { benchRoundTrips(b, true) }
