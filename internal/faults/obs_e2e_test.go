package faults

import (
	"strings"
	"testing"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/logsvc"
	"everyware/internal/obs"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// msgVictimEcho is the victim daemon's one message; the anomaly rule
// below watches its handle histogram by number (t99).
const msgVictimEcho wire.MsgType = 99

func init() { wire.Define(msgVictimEcho, "test.victim_echo", false) }

// TestObservatorySlowdownE2E is the observability plane's end-to-end
// proof, run under -race: a victim daemon with 1-in-64 head-sampled
// tail tracing serves a driver's echo calls while a Grid Observatory
// scrapes its handle histogram. A handler-level slowdown injected with
// Injector.Slow must then surface through every layer at once —
//
//	(a) the forecast-anomaly rule on the victim's p99 fires within a
//	    bounded number of scrape rounds and clears after the heal,
//	(b) the scraped histogram carries an exemplar trace ID from a slow
//	    request, and
//	(c) that exact trace is retrievable in full from the logsvc
//	    collector, tail-promoted past the 1-in-64 head policy.
func TestObservatorySlowdownE2E(t *testing.T) {
	const (
		msgEcho     = msgVictimEcho
		sampleEvery = 64
		slowFor     = 50 * time.Millisecond
		slowAt      = 25 * time.Millisecond
	)

	// Trace collector.
	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	collectorAddr, err := ls.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	in := New(Config{Seed: 7}) // no wire faults; only the handler slowdown

	// Victim daemon: echo service, handler wrapped by the injector so
	// Slow lands inside the request (visible to histograms and spans).
	vreg := telemetry.NewRegistry()
	vtr, stopVTr := dtrace.ForDaemonTail("victim", collectorAddr, sampleEvery, slowAt, vreg)
	victim := wire.NewService(wire.ServiceConfig{
		Name: "victim", ListenAddr: "127.0.0.1:0",
		Metrics: vreg, Tracer: vtr, Silent: true,
	})
	victim.Handle(msgEcho, in.SlowHandler("victim", wire.HandlerFunc(
		func(_ string, req *wire.Packet) (*wire.Packet, error) {
			return wire.Reply(msgEcho, wire.RawMessage(req.Payload)), nil
		})))
	victimAddr, err := victim.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	in.RegisterName(victimAddr, "victim")

	// Driver: roots a trace per call, same head policy and tail net.
	dtr, stopDTr := dtrace.ForDaemonTail("driver", collectorAddr, sampleEvery, slowAt, nil)
	wc := wire.NewClient(2 * time.Second)
	wc.Tracer = dtr
	defer wc.Close()
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			root := wire.StartSpan(dtr, "e2e.op", wire.TraceContext{})
			req := wire.NewRawRequest(msgEcho, []byte("ping"))
			req.Trace = root.Context()
			resp, err := wc.Call(victimAddr, req, 2*time.Second)
			if err != nil {
				t.Fatalf("echo call: %v", err)
			}
			resp.Release()
			root.End(string(telemetry.OutcomeOK))
		}
	}

	// Observatory: manual rounds, forecast-anomaly rule on the victim's
	// handle p99 (seconds).
	p99Metric := "wire.server.handle.t" + "99" + ".ok.p99"
	obsSrv := obs.New(obs.Config{
		Name: "obs", ListenAddr: "127.0.0.1:0", Silent: true, Interval: -1,
		Targets: []string{victimAddr},
		Rules: []obs.Rule{{
			Name: "victim-latency", Kind: obs.RuleAnomaly,
			Metric: p99Metric, Daemon: "victim", Role: "worker",
			Tolerance: 0.005, MinSamples: 5, For: 2, ClearAfter: 2,
		}},
	})
	if _, err := obsSrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer obsSrv.Close()

	// Train the forecaster on healthy latency.
	for i := 0; i < 12; i++ {
		send(8)
		obsSrv.Tick()
	}
	if got := obsSrv.Firing(""); got != 0 {
		t.Fatalf("alert firing on healthy traffic: %+v", obsSrv.Alerts())
	}

	// Inject the slowdown; the alert must fire within a bounded window.
	in.Slow("victim", slowFor)
	fired := false
	for i := 0; i < 12 && !fired; i++ {
		send(4)
		obsSrv.Tick()
		for _, al := range obsSrv.Alerts() {
			if al.Rule == "victim-latency" && al.Fires > 0 {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatalf("anomaly alert never fired under slowdown: %+v", obsSrv.Alerts())
	}

	// The scraped histogram must carry a slow request's trace exemplar.
	var seriesKey obs.SeriesKey
	for _, k := range obsSrv.Series().Keys() {
		if k.Metric == p99Metric {
			seriesKey = k
		}
	}
	if seriesKey.Daemon == "" {
		t.Fatalf("no %s series scraped; keys=%v", p99Metric, obsSrv.Series().Keys())
	}
	ex, ok := obsSrv.Series().SlowestExemplar(seriesKey)
	if !ok || ex.TraceID == 0 {
		t.Fatalf("no exemplar on %v (ok=%v ex=%+v)", seriesKey, ok, ex)
	}

	// Heal; the winsorized forecaster adapts and the alert clears.
	in.Unslow("victim")
	cleared := false
	for i := 0; i < 40 && !cleared; i++ {
		send(4)
		obsSrv.Tick()
		cleared = obsSrv.Firing("") == 0
	}
	if !cleared {
		t.Fatalf("alert never cleared after heal: %+v", obsSrv.Alerts())
	}

	// The exemplar's full trace must be in the collector: the victim's
	// serve span ran past the tail threshold, promoting the local
	// fragment a 1-in-64 head policy would have dropped; the driver's
	// root crossed it too. Stop both exporters to flush, then fetch by
	// the exemplar's trace ID.
	stopDTr()
	stopVTr()
	probe := wire.NewClient(2 * time.Second)
	defer probe.Close()
	spans, err := dtrace.Fetch(probe, collectorAddr, 0, ex.TraceID, 2*time.Second)
	if err != nil {
		t.Fatalf("fetch trace %x: %v", ex.TraceID, err)
	}
	if len(spans) == 0 {
		t.Fatalf("exemplar trace %x absent from collector", ex.TraceID)
	}
	var gotRoot, gotServe bool
	for _, s := range spans {
		if s.Name == "e2e.op" {
			gotRoot = true
		}
		if strings.HasPrefix(s.Name, "wire.serve.") {
			gotServe = true
		}
	}
	if !gotRoot || !gotServe {
		t.Fatalf("trace %x incomplete: root=%v serve=%v spans=%+v", ex.TraceID, gotRoot, gotServe, spans)
	}
	trees := dtrace.BuildTrees(spans)
	if len(trees) != 1 || trees[0].Spans < 2 {
		t.Fatalf("trace %x trees=%+v", ex.TraceID, trees)
	}
}
