package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/logsvc"
	"everyware/internal/ramsey"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

func TestWorkUnitRoundTrip(t *testing.T) {
	w := WorkUnit{ID: 7, N: 17, K: 4, Heuristic: "tabu", Seed: 99, Steps: 500, State: []byte{1, 2}}
	got, err := DecodeWorkUnit(EncodeWorkUnit(w))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != w.ID || got.N != w.N || got.K != w.K || got.Heuristic != w.Heuristic ||
		got.Seed != w.Seed || got.Steps != w.Steps || !bytes.Equal(got.State, w.State) {
		t.Fatalf("got %+v", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := Report{
		ClientID: "c1", Infra: "condor", WorkID: 3, Ops: 12345,
		ElapsedSec: 1.5, Conflicts: 7, Iterations: 900, Found: true, State: []byte{9},
	}
	got, err := DecodeReport(EncodeReport(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != r.ClientID || got.Infra != r.Infra || got.WorkID != r.WorkID ||
		got.Ops != r.Ops || got.ElapsedSec != r.ElapsedSec || got.Conflicts != r.Conflicts ||
		got.Iterations != r.Iterations || got.Found != r.Found || !bytes.Equal(got.State, r.State) {
		t.Fatalf("got %+v", got)
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	dr := Directive{Kind: DirNewWork, Steps: 100, Work: WorkUnit{ID: 5, N: 9, K: 3, Heuristic: "anneal"}}
	got, err := DecodeDirective(EncodeDirective(dr))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != dr.Kind || got.Steps != dr.Steps || got.Work.ID != 5 || got.Work.N != 9 {
		t.Fatalf("got %+v", got)
	}
}

func TestQuickReportRoundTrip(t *testing.T) {
	f := func(id, infra string, workID uint64, ops int64, conflicts uint16, found bool, state []byte) bool {
		r := Report{ClientID: id, Infra: infra, WorkID: workID, Ops: ops,
			Conflicts: int(conflicts), Found: found, State: state}
		got, err := DecodeReport(EncodeReport(r))
		return err == nil && got.ClientID == id && got.WorkID == workID &&
			got.Ops == ops && got.Conflicts == int(conflicts) && got.Found == found &&
			bytes.Equal(got.State, state)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerFirstContactAssignsWork(t *testing.T) {
	s := NewServer(ServerConfig{N: 9, K: 3})
	dr := s.Handle(Report{ClientID: "c1", Infra: "unix"})
	if dr.Kind != DirNewWork {
		t.Fatalf("kind = %d", dr.Kind)
	}
	if dr.Work.N != 9 || dr.Work.K != 3 || dr.Work.ID == 0 || dr.Work.Steps <= 0 {
		t.Fatalf("work = %+v", dr.Work)
	}
}

func TestSchedulerCyclesHeuristics(t *testing.T) {
	s := NewServer(ServerConfig{N: 9, K: 3})
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		dr := s.Handle(Report{ClientID: fmt.Sprintf("c%d", i)})
		seen[dr.Work.Heuristic] = true
	}
	if len(seen) != len(ramsey.Heuristics()) {
		t.Fatalf("heuristics cycled: %v", seen)
	}
}

func TestSchedulerStepsByHeuristic(t *testing.T) {
	s := NewServer(ServerConfig{
		N: 9, K: 3,
		Heuristics:       []ramsey.Heuristic{ramsey.HeurAnneal},
		StepsByHeuristic: map[ramsey.Heuristic]int64{ramsey.HeurAnneal: 12345},
	})
	dr := s.Handle(Report{ClientID: "c1"})
	if dr.Work.Steps != 12345 {
		t.Fatalf("steps = %d", dr.Work.Steps)
	}
}

func TestSchedulerContinueOnProgress(t *testing.T) {
	s := NewServer(ServerConfig{N: 9, K: 3, MigrateBelowFraction: -1})
	dr := s.Handle(Report{ClientID: "c1"})
	w := dr.Work
	dr2 := s.Handle(Report{ClientID: "c1", WorkID: w.ID, Ops: 1000, ElapsedSec: 1, Conflicts: 5})
	if dr2.Kind != DirContinue {
		t.Fatalf("kind = %d, want continue", dr2.Kind)
	}
}

func TestSchedulerVerifiesFoundCounterExamples(t *testing.T) {
	s := NewServer(ServerConfig{N: 5, K: 3})
	dr := s.Handle(Report{ClientID: "c1"})
	pent, _ := ramsey.Paley(5)
	dr2 := s.Handle(Report{
		ClientID: "c1", WorkID: dr.Work.ID, Ops: 10, ElapsedSec: 1,
		Found: true, State: pent.Encode(),
	})
	if dr2.Kind != DirNewWork {
		t.Fatalf("found should trigger new work, got %d", dr2.Kind)
	}
	if len(s.Found()) != 1 {
		t.Fatalf("found = %d, want 1", len(s.Found()))
	}
	// A bogus "found" claim must be rejected by verification.
	bogus := ramsey.NewColoring(6) // all-red K6 has mono triangles
	s.Handle(Report{
		ClientID: "c1", WorkID: dr2.Work.ID, Ops: 10, ElapsedSec: 1,
		Found: true, State: bogus.Encode(),
	})
	if len(s.Found()) != 1 {
		t.Fatal("bogus counter-example accepted")
	}
}

func TestSchedulerMigratesSlowClientWork(t *testing.T) {
	s := NewServer(ServerConfig{N: 9, K: 3, MinClientsForMigration: 3, MigrateBelowFraction: 0.25})
	// Three clients get work.
	var works [3]WorkUnit
	for i := range works {
		dr := s.Handle(Report{ClientID: fmt.Sprintf("c%d", i)})
		works[i] = dr.Work
	}
	state := ramsey.NewColoring(9).Encode()
	// Establish rates: c0 and c1 fast, c2 very slow.
	for round := 0; round < 6; round++ {
		s.Handle(Report{ClientID: "c0", WorkID: works[0].ID, Ops: 1_000_000, ElapsedSec: 1, Conflicts: 4, State: state})
		s.Handle(Report{ClientID: "c1", WorkID: works[1].ID, Ops: 900_000, ElapsedSec: 1, Conflicts: 4, State: state})
		dr := s.Handle(Report{ClientID: "c2", WorkID: works[2].ID, Ops: 10, ElapsedSec: 1, Conflicts: 4, State: state})
		if dr.Kind == DirNewWork {
			works[2] = dr.Work
		}
	}
	_, migrations, _ := s.Stats()
	if migrations == 0 {
		t.Fatal("slow client's work was never migrated")
	}
	// A fast client should eventually receive a migrated unit (with state).
	got := false
	for round := 0; round < 6 && !got; round++ {
		dr := s.Handle(Report{ClientID: "c0", WorkID: works[0].ID, Ops: 1_000_000, ElapsedSec: 1, Conflicts: 4, State: state})
		if dr.Kind == DirNewWork && len(dr.Work.State) > 0 {
			got = true
		} else if dr.Kind == DirNewWork {
			works[0] = dr.Work
		}
	}
	if !got {
		t.Fatal("migrated work never reassigned to a fast client")
	}
}

func TestSchedulerExpiresStaleClients(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := telemetry.NewRegistry()
	reg.SetNow(func() time.Time { return now })
	s := NewServer(ServerConfig{N: 9, K: 3, StaleAfter: 10 * time.Second, Metrics: reg})
	s.Handle(Report{ClientID: "c1"})
	s.Handle(Report{ClientID: "c2"})
	_, _, clients := s.Stats()
	if clients != 2 {
		t.Fatalf("clients = %d", clients)
	}
	now = now.Add(time.Minute)
	s.Handle(Report{ClientID: "c2", Ops: 1, ElapsedSec: 1})
	_, _, clients = s.Stats()
	if clients != 1 {
		t.Fatalf("stale client not expired: %d", clients)
	}
}

// TestSchedulerExpiryForgetsRateForecaster: a departed client's rate
// forecaster goes with it, so churn under fresh IDs does not grow the
// forecast registry without bound.
func TestSchedulerExpiryForgetsRateForecaster(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := telemetry.NewRegistry()
	reg.SetNow(func() time.Time { return now })
	s := NewServer(ServerConfig{N: 9, K: 3, StaleAfter: 10 * time.Second, Metrics: reg})
	report := func(id string) {
		dr := s.Handle(Report{ClientID: id})
		s.Handle(Report{ClientID: id, WorkID: dr.Work.ID, Ops: 100, ElapsedSec: 1})
	}
	report("stayer")
	baseline := len(s.forecasts.Keys())
	for i := 0; i < 5; i++ {
		report(fmt.Sprintf("churn-%d", i))
	}
	if got := len(s.forecasts.Keys()); got != baseline+5 {
		t.Fatalf("forecasters = %d, want %d", got, baseline+5)
	}
	now = now.Add(time.Minute)
	report("stayer")
	if got := len(s.forecasts.Keys()); got != baseline {
		t.Fatalf("forecasters after expiry = %d, want baseline %d: %v", got, baseline, s.forecasts.Keys())
	}
}

func TestSchedulerForwardsPerfToLogService(t *testing.T) {
	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	s := NewServer(ServerConfig{N: 9, K: 3, LogAddr: ls.Addr()})
	defer s.Close()
	dr := s.Handle(Report{ClientID: "c1", Infra: "legion"})
	s.Handle(Report{ClientID: "c1", Infra: "legion", WorkID: dr.Work.ID, Ops: 500, ElapsedSec: 1})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if appended, _ := ls.Stats(); appended >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("perf reports never reached the logging service")
}

func TestRunnerEndToEndOverWire(t *testing.T) {
	s := NewServer(ServerConfig{N: 5, K: 3, DefaultSteps: 3000})
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	var foundCE *ramsey.CounterExample
	r, err := NewRunner(RunnerConfig{
		ClientID:   "it-client",
		Infra:      "unix",
		Schedulers: []string{addr},
		OnFound:    func(ce *ramsey.CounterExample) { foundCE = ce },
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle until a counter-example for R(3) on K5 is found (fast).
	for i := 0; i < 50; i++ {
		if _, err := r.Cycle(); err != nil {
			t.Fatal(err)
		}
		if len(s.Found()) > 0 {
			break
		}
	}
	if len(s.Found()) == 0 {
		t.Fatal("no counter-example found in 50 cycles")
	}
	if foundCE == nil {
		t.Fatal("OnFound hook never fired")
	}
	if err := foundCE.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.Ops().Total() <= 0 {
		t.Fatal("runner recorded no ops")
	}
}

func TestRunnerFailsOverBetweenSchedulers(t *testing.T) {
	dead := "127.0.0.1:1" // nothing listens here
	s := NewServer(ServerConfig{N: 5, K: 3})
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wc := wire.NewClient(200 * time.Millisecond)
	defer wc.Close()
	r, err := NewRunner(RunnerConfig{
		ClientID:   "fo-client",
		Infra:      "condor",
		Schedulers: []string{dead, addr},
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := r.Cycle()
	if err != nil {
		t.Fatalf("failover cycle: %v", err)
	}
	if dr.Kind != DirNewWork {
		t.Fatalf("kind = %d", dr.Kind)
	}
}

func TestRunnerNoSchedulerError(t *testing.T) {
	wc := wire.NewClient(100 * time.Millisecond)
	defer wc.Close()
	r, err := NewRunner(RunnerConfig{
		ClientID:   "lost-client",
		Schedulers: []string{"127.0.0.1:1"},
	}, wc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Cycle(); err == nil {
		t.Fatal("expected ErrNoScheduler")
	}
}

func TestRunnerConfigValidation(t *testing.T) {
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	if _, err := NewRunner(RunnerConfig{Schedulers: []string{"x"}}, wc); err == nil {
		t.Fatal("missing ClientID must fail")
	}
	if _, err := NewRunner(RunnerConfig{ClientID: "c"}, wc); err == nil {
		t.Fatal("missing schedulers must fail")
	}
}

func TestStopWhenFoundWindsDownClients(t *testing.T) {
	s := NewServer(ServerConfig{N: 5, K: 3, StopWhenFound: true})
	dr := s.Handle(Report{ClientID: "finder"})
	pent, _ := ramsey.Paley(5)
	// The finder reports the counter-example and is itself stopped.
	dr2 := s.Handle(Report{
		ClientID: "finder", WorkID: dr.Work.ID, Ops: 10, ElapsedSec: 1,
		Found: true, State: pent.Encode(),
	})
	if dr2.Kind != DirStop {
		t.Fatalf("finder directive = %d, want stop", dr2.Kind)
	}
	if len(s.Found()) != 1 {
		t.Fatalf("found = %d", len(s.Found()))
	}
	// Every other client is stopped on its next report.
	dr3 := s.Handle(Report{ClientID: "other", WorkID: 0})
	if dr3.Kind != DirStop {
		t.Fatalf("other directive = %d, want stop", dr3.Kind)
	}
	_, _, clients := s.Stats()
	if clients != 0 {
		t.Fatalf("clients = %d after wind-down", clients)
	}
}

func TestRunnerObeysStopDirective(t *testing.T) {
	sv := NewServer(ServerConfig{N: 5, K: 3, DefaultSteps: 5000, StopWhenFound: true})
	addr, err := sv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	r, err := NewRunner(RunnerConfig{ClientID: "stopper", Infra: "unix", Schedulers: []string{addr}}, wc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !r.Stopped(); i++ {
		if _, err := r.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Stopped() {
		t.Fatal("runner never received the stop directive")
	}
	if len(sv.Found()) == 0 {
		t.Fatal("stop without a found counter-example")
	}
}

// TestLogForwardKeepsTraceAndCloseIsClean: every handled report yields
// exactly one logsvc append served as a child of that report's own trace
// context, even when several reports ship in one round; and after Close
// no append is sent, nothing dials, and no goroutine is left.
func TestLogForwardKeepsTraceAndCloseIsClean(t *testing.T) {
	base := runtime.NumGoroutine()
	var served dtrace.Capture
	ls, err := logsvc.NewServer(logsvc.ServerConfig{
		ListenAddr: "127.0.0.1:0",
		Tracer:     dtrace.New(dtrace.Config{Service: "logd", Sink: &served}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	s := NewServer(ServerConfig{N: 9, K: 3, LogAddr: ls.Addr()})
	var dials atomic.Int64
	s.wc.Dialer = func(addr string, timeout time.Duration) (*wire.Conn, error) {
		dials.Add(1)
		return wire.Dial(addr, timeout)
	}
	const reports = 40
	for i := uint64(1); i <= reports; i++ {
		tc := wire.TraceContext{TraceID: i, SpanID: 1000 + i, Sampled: true}
		s.HandleCtx(tc, Report{ClientID: fmt.Sprintf("c%d", i), Infra: "unix"})
	}
	s.Close() // ships what is queued before it stops
	if appended, _ := ls.Stats(); appended != reports {
		t.Fatalf("logsvc appended %d entries for %d reports", appended, reports)
	}
	seen := make(map[uint64]bool)
	for _, sp := range served.Spans() {
		if sp.Name != "wire.serve."+wire.MsgName(logsvc.MsgAppend) {
			continue
		}
		if seen[sp.TraceID] || sp.ParentID != 1000+sp.TraceID {
			t.Fatalf("append span %+v: logged twice, or not a child of its report's span", sp)
		}
		seen[sp.TraceID] = true
	}
	if len(seen) != reports {
		t.Fatalf("%d appends carried a report's trace, want %d", len(seen), reports)
	}

	dialed := dials.Load()
	s.Handle(Report{ClientID: "late", Infra: "unix"})
	ls.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
	if got := dials.Load(); got != dialed {
		t.Fatalf("closed scheduler dialed %d more times", got-dialed)
	}
	if appended, _ := ls.Stats(); appended != reports {
		t.Fatalf("a report handled after Close was logged (%d entries)", appended)
	}
}
