package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/logsvc"
	"everyware/internal/outbox"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ServerConfig parameterizes a scheduling server.
type ServerConfig struct {
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// Problem is the search target: counter-examples for R(K) on N
	// vertices.
	N, K int
	// Heuristics cycles work units through these algorithms (defaults to
	// all implemented heuristics).
	Heuristics []ramsey.Heuristic
	// DefaultSteps is the per-report step budget handed to clients
	// (default 2000).
	DefaultSteps int64
	// StepsByHeuristic overrides the budget per algorithm — the paper's
	// "different control directives based on the type of algorithm the
	// client is executing".
	StepsByHeuristic map[ramsey.Heuristic]int64
	// MigrateBelowFraction: a client whose forecast rate falls below this
	// fraction of the pool median has its workload migrated (default
	// 0.25; 0 disables migration).
	MigrateBelowFraction float64
	// MinClientsForMigration is the smallest pool that triggers migration
	// decisions (default 3).
	MinClientsForMigration int
	// StaleAfter expires clients that stop reporting (default 30s).
	StaleAfter time.Duration
	// MedianRefresh bounds how often the pool median rate is recomputed
	// (default 2s; migration decisions between refreshes reuse the cached
	// value).
	MedianRefresh time.Duration
	// StopWhenFound, if set, directs every client to stop once a verified
	// counter-example has been recorded — the application has met its
	// goal (a new bound) and releases the non-dedicated resources.
	StopWhenFound bool
	// LogAddr, if set, forwards performance reports to a logging server.
	LogAddr string
	// Transport selects the wire substrate for the listener and outbound
	// calls (log forwarding). Nil means TCP.
	Transport wire.Transport
	// SampleEdges is passed through to work units (bounds per-step cost).
	SampleEdges int
	// AdmitRate, if positive, enables admission control: the sustained
	// report rate (reports/second) this shard accepts before shedding,
	// priority-aware (transient applet traffic sheds first). Shed reports
	// get a bare DirShed — a degraded success; the client re-reports
	// later. Zero admits everything.
	AdmitRate float64
	// AdmitBurst is the admission token bucket depth (default AdmitRate).
	AdmitBurst float64
	// Metrics, if set, is the daemon's shared telemetry registry (a fresh
	// one is created otherwise). Its clock is the scheduler's clock: a
	// simulated run hands in a registry on virtual time (SetNow).
	Metrics *telemetry.Registry
	// Tracer, if set, records causal trace spans: every report handled
	// under a trace context yields a sched.decision span with the
	// forecast read and the log-forward RPC as children. Nil disables.
	Tracer wire.Tracer
}

func (c *ServerConfig) fill() {
	if c.N == 0 {
		c.N = 17
	}
	if c.K == 0 {
		c.K = 4
	}
	if len(c.Heuristics) == 0 {
		c.Heuristics = ramsey.Heuristics()
	}
	if c.DefaultSteps == 0 {
		c.DefaultSteps = 2000
	}
	if c.MigrateBelowFraction == 0 {
		c.MigrateBelowFraction = 0.25
	}
	if c.MinClientsForMigration == 0 {
		c.MinClientsForMigration = 3
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 30 * time.Second
	}
	if c.MedianRefresh == 0 {
		c.MedianRefresh = 2 * time.Second
	}
}

// clientRecord tracks one reporting client.
type clientRecord struct {
	id       string
	infra    string
	lastSeen time.Time
	work     WorkUnit
	lastRate float64
}

// Server is one scheduling server.
type Server struct {
	cfg       ServerConfig
	svc       *wire.Service
	srv       *wire.Server
	wc        *wire.Client
	forecasts *forecast.Registry
	metrics   *telemetry.Registry
	decision  *telemetry.SpanFamily
	admit     *scale.Admitter

	mu        sync.Mutex
	clients   map[string]*clientRecord
	migrated  []WorkUnit // stashed in-progress work awaiting a fast client
	nextID    uint64
	nextSeed  int64
	nextHeur  int
	found     []*ramsey.CounterExample
	reports   int64
	migration int64

	// logs queues perf entries bound for the logging service, each with
	// its report's trace context; out ships them off the report path.
	// shipping is the round in flight, touched only by out's goroutine.
	logMu    sync.Mutex
	logs     []logForward
	shipping []logForward
	out      *outbox.Sender

	// Median-rate cache: recomputing the pool median on every report is
	// O(clients x forecast battery); the median moves slowly, so it is
	// refreshed at most once per MedianRefresh.
	medianCache   float64
	medianValidAt time.Time
}

// NewServer creates a scheduling server; call Start to serve.
func NewServer(cfg ServerConfig) *Server {
	cfg.fill()
	svc := wire.NewService(wire.ServiceConfig{
		Name:       "sched",
		ListenAddr: cfg.ListenAddr,
		Transport:  cfg.Transport,
		Metrics:    cfg.Metrics,
		Silent:     true,
		Tracer:     cfg.Tracer,
	})
	s := &Server{
		cfg:       cfg,
		svc:       svc,
		srv:       svc.Server(),
		wc:        svc.Client(),
		metrics:   svc.Metrics(),
		decision:  svc.Metrics().SpanFamily("sched.decision"),
		forecasts: forecast.NewRegistry(),
		clients:   make(map[string]*clientRecord),
	}
	if cfg.AdmitRate > 0 {
		s.admit = scale.NewAdmitter(scale.AdmitterConfig{
			Rate:    cfg.AdmitRate,
			Burst:   cfg.AdmitBurst,
			Metrics: s.metrics,
		})
	}
	if cfg.LogAddr != "" {
		s.out = outbox.NewSender(s.shipLogs)
	}
	svc.Handle(MsgReport, wire.HandlerFunc(s.handleReport))
	return s
}

// Metrics returns the daemon's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// Start binds the listener and returns the bound address. A server that
// fails to bind is closed.
func (s *Server) Start() (string, error) {
	addr, err := s.svc.Start()
	if err != nil {
		s.Close()
	}
	return addr, err
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.svc.Addr() }

// Close ships the perf entries already queued for the logging service,
// then stops the daemon; an entry queued later is never sent.
func (s *Server) Close() {
	if s.out != nil {
		s.out.Close()
	}
	s.svc.Close()
}

// Found returns the counter-examples reported so far.
func (s *Server) Found() []*ramsey.CounterExample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*ramsey.CounterExample, len(s.found))
	copy(out, s.found)
	return out
}

// Stats returns (reports handled, migrations performed, live clients).
func (s *Server) Stats() (reports, migrations int64, clients int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reports, s.migration, len(s.clients)
}

// newWorkLocked mints a fresh work unit.
func (s *Server) newWorkLocked() WorkUnit {
	s.nextID++
	s.nextSeed++
	h := s.cfg.Heuristics[s.nextHeur%len(s.cfg.Heuristics)]
	s.nextHeur++
	return WorkUnit{
		ID:        s.nextID,
		N:         s.cfg.N,
		K:         s.cfg.K,
		Heuristic: string(h),
		Seed:      s.nextSeed,
		Steps:     s.stepsFor(h),
	}
}

func (s *Server) stepsFor(h ramsey.Heuristic) int64 {
	if v, ok := s.cfg.StepsByHeuristic[h]; ok && v > 0 {
		return v
	}
	return s.cfg.DefaultSteps
}

// Handle processes one report and returns the scheduler's directive. It is
// exported so the SC98 simulation can drive the same policy code without a
// network.
func (s *Server) Handle(r Report) Directive {
	return s.HandleCtx(wire.TraceContext{}, r)
}

// TryHandle runs admission control before the scheduling policy: a shed
// report returns (DirShed, true) without touching any scheduler state —
// the degraded-success path. The simulation and the wire handler route
// through it so admission behaves identically everywhere.
func (s *Server) TryHandle(tc wire.TraceContext, r Report) (Directive, bool) {
	if err := s.admit.Admit(scale.PriorityFor(r.Infra)); err != nil {
		return Directive{Kind: DirShed}, true
	}
	return s.HandleCtx(tc, r), false
}

// HandleCtx is Handle under a causal trace context: the scheduling
// decision is recorded as a child span of tc (valid for reports arriving
// over the wire with a trace envelope, or from the simulation's own
// roots), with the forecast read nested inside it.
func (s *Server) HandleCtx(tc wire.TraceContext, r Report) Directive {
	sp := s.decision.Start()
	dsp := wire.StartSpan(s.cfg.Tracer, "sched.decision", tc)
	dsp.Annotate("client", r.ClientID)
	d := s.handle(dsp.Context(), r)
	sp.End(telemetry.OutcomeOK)
	dsp.Annotate("directive", kindLabel(d.Kind))
	dsp.End("ok")
	s.metrics.Counter("sched.reports").Inc()
	if d.Kind == DirNewWork {
		s.metrics.Counter("sched.dispatched." + infraLabel(r.Infra)).Inc()
	}
	// Publish the shard's backlog — active clients plus stashed migrated
	// work — as a gauge. This is the control plane's autoscale load
	// signal: it rises when one shard carries more of the pool than its
	// peers, and the controller sizes the scheduler role from it.
	s.mu.Lock()
	s.metrics.Gauge("sched.queue.depth").Set(int64(len(s.clients) + len(s.migrated)))
	s.mu.Unlock()
	return d
}

// kindLabel names a directive kind for span annotations.
func kindLabel(k DirectiveKind) string {
	switch k {
	case DirContinue:
		return "continue"
	case DirNewWork:
		return "new_work"
	case DirStop:
		return "stop"
	case DirShed:
		return "shed"
	default:
		return "unknown"
	}
}

// infraLabel folds an infrastructure name into a metric-name component.
func infraLabel(infra string) string {
	if infra == "" {
		return "unknown"
	}
	return infra
}

func (s *Server) handle(tc wire.TraceContext, r Report) Directive {
	now := s.metrics.Now()
	// Record the client's measured computational rate for forecasting.
	rate := 0.0
	if r.ElapsedSec > 0 {
		rate = float64(r.Ops) / r.ElapsedSec
	}
	key := forecast.Key{Resource: r.ClientID, Event: "rate"}
	if r.WorkID != 0 {
		s.forecasts.Record(key, rate)
	}
	s.forwardPerf(tc, r, rate)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reports++
	s.expireStaleLocked(now)

	rec := s.clients[r.ClientID]
	if rec == nil {
		rec = &clientRecord{id: r.ClientID, infra: r.Infra}
		s.clients[r.ClientID] = rec
	}
	rec.lastSeen = now
	rec.lastRate = rate

	// Goal reached: wind the application down.
	if s.cfg.StopWhenFound && len(s.found) > 0 && !(r.Found && len(r.State) > 0) {
		delete(s.clients, r.ClientID)
		return Directive{Kind: DirStop}
	}

	// A found counter-example completes the unit: verify and record.
	if r.Found && len(r.State) > 0 {
		if col, err := ramsey.DecodeColoring(r.State); err == nil {
			ce := &ramsey.CounterExample{K: s.cfg.K, Coloring: col, Finder: r.ClientID}
			if ce.Verify() == nil {
				s.found = append(s.found, ce)
				s.metrics.Counter("sched.found").Inc()
				s.metrics.Counter("sched.completed." + infraLabel(r.Infra)).Inc()
			}
		}
		if s.cfg.StopWhenFound && len(s.found) > 0 {
			delete(s.clients, r.ClientID)
			return Directive{Kind: DirStop}
		}
		w := s.newWorkLocked()
		rec.work = w
		return Directive{Kind: DirNewWork, Work: w, Steps: w.Steps}
	}

	// First contact or unit mismatch: hand out work. Migrated work goes to
	// provably fast clients; everyone else gets fresh units.
	if r.WorkID == 0 || r.WorkID != rec.work.ID {
		w := s.takeWorkLocked(r.ClientID)
		rec.work = w
		return Directive{Kind: DirNewWork, Work: w, Steps: w.Steps}
	}

	// Migration decision, per the paper: forecast this client's rate; if
	// it is predicted slow relative to the pool, move its workload to a
	// faster machine (by stashing the in-progress state for reassignment)
	// and give the slow client a fresh exploratory unit.
	if s.cfg.MigrateBelowFraction > 0 && len(s.clients) >= s.cfg.MinClientsForMigration {
		myForecast := rate
		fsp := wire.StartSpan(s.cfg.Tracer, "sched.forecast.read", tc)
		fsp.Annotate("resource", r.ClientID)
		if f, ok := s.forecasts.Forecast(key); ok {
			myForecast = f.Value
			fsp.End("ok")
		} else {
			fsp.End("miss")
		}
		med := s.medianForecastLocked()
		if med > 0 && myForecast < s.cfg.MigrateBelowFraction*med {
			if len(r.State) > 0 && r.Conflicts > 0 {
				stash := rec.work
				stash.State = append([]byte(nil), r.State...)
				s.migrated = append(s.migrated, stash)
				s.migration++
				s.metrics.Counter("sched.migrations").Inc()
			}
			w := s.newWorkLocked()
			rec.work = w
			return Directive{Kind: DirNewWork, Work: w, Steps: w.Steps}
		}
		// Fast client with migrated work pending: reassign it.
		if len(s.migrated) > 0 && myForecast >= med {
			w := s.migrated[0]
			s.migrated = s.migrated[1:]
			s.nextID++
			w.ID = s.nextID
			w.Steps = s.stepsFor(ramsey.Heuristic(w.Heuristic))
			rec.work = w
			return Directive{Kind: DirNewWork, Work: w, Steps: w.Steps}
		}
	}
	return Directive{Kind: DirContinue, Steps: s.stepsFor(ramsey.Heuristic(rec.work.Heuristic))}
}

// takeWorkLocked prefers migrated work, else mints a fresh unit.
func (s *Server) takeWorkLocked(clientID string) WorkUnit {
	if len(s.migrated) > 0 {
		w := s.migrated[0]
		s.migrated = s.migrated[1:]
		s.nextID++
		w.ID = s.nextID
		w.Steps = s.stepsFor(ramsey.Heuristic(w.Heuristic))
		return w
	}
	return s.newWorkLocked()
}

// medianForecastLocked returns the pool's median forecast rate, cached
// for MedianRefresh.
func (s *Server) medianForecastLocked() float64 {
	now := s.metrics.Now()
	if !s.medianValidAt.IsZero() && now.Sub(s.medianValidAt) < s.cfg.MedianRefresh {
		return s.medianCache
	}
	s.medianCache = s.computeMedianLocked()
	s.medianValidAt = now
	return s.medianCache
}

// computeMedianLocked computes the median over all clients' forecast
// rates.
func (s *Server) computeMedianLocked() float64 {
	rates := make([]float64, 0, len(s.clients))
	for id, rec := range s.clients {
		f, ok := s.forecasts.Forecast(forecast.Key{Resource: id, Event: "rate"})
		switch {
		case ok:
			rates = append(rates, f.Value)
		case rec.lastRate > 0:
			rates = append(rates, rec.lastRate)
		}
	}
	if len(rates) == 0 {
		return 0
	}
	sort.Float64s(rates)
	n := len(rates)
	if n%2 == 1 {
		return rates[n/2]
	}
	return (rates[n/2-1] + rates[n/2]) / 2
}

// expireStaleLocked drops clients that stopped reporting and re-queues
// their in-progress work.
func (s *Server) expireStaleLocked(now time.Time) {
	for id, rec := range s.clients {
		if now.Sub(rec.lastSeen) <= s.cfg.StaleAfter {
			continue
		}
		s.metrics.Counter("sched.lost." + infraLabel(rec.infra)).Inc()
		if len(rec.work.State) > 0 {
			s.migrated = append(s.migrated, rec.work)
		}
		delete(s.clients, id)
		// Churning hosts rejoin under fresh IDs; keeping the departed one's
		// rate forecaster would grow the registry without bound.
		s.forecasts.Forget(forecast.Key{Resource: id, Event: "rate"})
	}
}

// logForward is one perf entry awaiting the log hop.
type logForward struct {
	en logsvc.Entry
	tc wire.TraceContext
}

// maxLogBacklog bounds the perf entries queued while the logging service
// is slow or away; beyond it new entries are dropped and counted.
const maxLogBacklog = 1024

// forwardPerf queues the report's performance information for the logging
// service before it is discarded (section 3.1.3). The append carries the
// decision's trace context, so the log hop appears in the report's trace
// tree.
func (s *Server) forwardPerf(tc wire.TraceContext, r Report, rate float64) {
	if s.cfg.LogAddr == "" {
		return
	}
	en := logsvc.Entry{
		Unix:   s.metrics.Now().UnixNano(),
		Source: r.ClientID,
		Level:  "perf",
		Line:   perfLine(r, rate),
	}
	s.logMu.Lock()
	full := len(s.logs) >= maxLogBacklog
	if !full {
		s.logs = append(s.logs, logForward{en: en, tc: tc})
	}
	s.logMu.Unlock()
	if full {
		s.metrics.Counter("sched.log.dropped").Inc()
		return
	}
	s.out.Kick()
}

// shipLogs sends every queued perf entry as its own MsgAppend, pipelined
// on the one connection to the logging service, and reports whether any
// were queued. Best effort: a failed append is not retried.
func (s *Server) shipLogs() bool {
	s.logMu.Lock()
	s.shipping = append(s.shipping[:0], s.logs...)
	s.logs = s.logs[:0]
	s.logMu.Unlock()
	calls := make([]*wire.PendingCall, len(s.shipping))
	for i := range s.shipping {
		f := &s.shipping[i]
		req := wire.NewRequest(logsvc.MsgAppend, &f.en)
		req.Trace = f.tc
		calls[i] = s.wc.Go(s.cfg.LogAddr, req, 2*time.Second)
	}
	for _, call := range calls {
		if resp, err := call.Wait(); err == nil {
			resp.Release()
		}
	}
	return len(calls) > 0
}

func perfLine(r Report, rate float64) string {
	return fmt.Sprintf("infra=%s ops=%d rate=%.1f conflicts=%d", r.Infra, r.Ops, rate, r.Conflicts)
}

func (s *Server) handleReport(_ string, req *wire.Packet) (*wire.Packet, error) {
	r, err := DecodeReport(req.Payload)
	if err != nil {
		return nil, err
	}
	dr, _ := s.TryHandle(req.Trace, r)
	return wire.Reply(MsgReport, dr), nil
}
