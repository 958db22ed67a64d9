package obs

import (
	"strings"
	"sync"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// AlertsKey is the pstate object the observatory persists its alert
// table under, in the "obs" class.
const AlertsKey = "everyware/obs/alerts"

// Config parameterizes an observatory daemon.
type Config struct {
	// Name is the daemon's telemetry identity (default "obs").
	Name string
	// ListenAddr binds the introspection endpoint (default ":0").
	ListenAddr string
	// Transport, Dialer, Metrics, Silent follow wire.ServiceConfig. The
	// registry's clock is the observatory's: alert timestamps come from it.
	Transport wire.Transport
	Dialer    wire.DialFunc
	Metrics   *telemetry.Registry
	Silent    bool

	// Targets is the static scrape list (telemetry addresses).
	Targets []string
	// Roster, if set, is consulted every round for additional targets —
	// the hook the deployment wires to its gossip/membership view, so
	// the scrape set follows the fleet.
	Roster func() []string

	// Interval is the scrape period (default 5s). Negative disables the
	// background loop entirely; tests drive rounds with Tick.
	Interval time.Duration
	// Timeout bounds each per-target scrape RPC (default 2s).
	Timeout time.Duration
	// Points is the ring capacity per series (default 128).
	Points int

	// Rules is the alert rule set evaluated after every scrape round.
	Rules []Rule

	// PStates, when set, persists the alert table to this replica set on
	// every transition, and restores it at Start.
	PStates []string
}

// Server is the observatory daemon: scrape loop, series store, rule
// engine, and the MsgObsAlerts/MsgObsQuery introspection endpoint.
type Server struct {
	cfg Config
	svc *wire.Service
	set *SeriesSet
	eng *Engine
	rs  *pstate.ReplicaSet

	scrapeOK  *telemetry.Counter
	scrapeErr *telemetry.Counter
	raised    *telemetry.Counter
	clearedC  *telemetry.Counter
	firing    *telemetry.Gauge
	targets   *telemetry.Gauge

	mu      sync.Mutex // serializes rounds (Tick vs loop) and persistence
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New builds an observatory from cfg (call Start to bind and begin).
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "obs"
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = ":0"
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	s := &Server{
		cfg:  cfg,
		set:  NewSeriesSet(cfg.Points),
		eng:  NewEngine(cfg.Rules),
		stop: make(chan struct{}),
	}
	s.svc = wire.NewService(wire.ServiceConfig{
		Name:       cfg.Name,
		ListenAddr: cfg.ListenAddr,
		Transport:  cfg.Transport,
		Dialer:     cfg.Dialer,
		Metrics:    cfg.Metrics,
		Silent:     cfg.Silent,
	})
	reg := s.svc.Metrics()
	s.scrapeOK = reg.Counter("obs.scrape.ok")
	s.scrapeErr = reg.Counter("obs.scrape.err")
	s.raised = reg.Counter("obs.alerts.raised")
	s.clearedC = reg.Counter("obs.alerts.cleared")
	s.firing = reg.Gauge("obs.alerts.firing")
	s.targets = reg.Gauge("obs.scrape.targets")

	s.svc.Handle(MsgObsAlerts, wire.HandlerFunc(func(_ string, _ *wire.Packet) (*wire.Packet, error) {
		return wire.Reply(MsgObsAlerts, wire.RawMessage(EncodeAlerts(s.Alerts()))), nil
	}))
	s.svc.Handle(MsgObsQuery, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		var q QueryRequest
		if err := q.DecodeWire(wire.NewDecoder(req.Payload)); err != nil {
			return nil, err
		}
		return wire.Reply(MsgObsQuery, wire.RawMessage(EncodeQueryResponse(s.query(q)))), nil
	}))
	return s
}

// Start binds the introspection endpoint, restores persisted alerts,
// and (unless Interval < 0) launches the scrape loop. Returns the bound
// address.
func (s *Server) Start() (string, error) {
	addr, err := s.svc.Start()
	if err != nil {
		return "", err
	}
	if len(s.cfg.PStates) > 0 {
		s.rs, err = pstate.NewReplicaSet(s.svc.Client(), pstate.ReplicaSetConfig{
			Addrs:   s.cfg.PStates,
			Timeout: s.cfg.Timeout,
			Metrics: s.svc.Metrics(),
		})
		if err != nil {
			s.svc.Close()
			return "", err
		}
		if obj, ok, err := s.rs.Fetch(AlertsKey); err == nil && ok {
			if alerts, err := DecodeAlerts(obj.Data); err == nil {
				s.eng.Restore(alerts)
			}
		}
	}
	if s.cfg.Interval > 0 {
		s.wg.Add(1)
		go s.loop()
	}
	return addr, nil
}

func (s *Server) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Tick runs one observatory round — scrape every target, fold the
// snapshots into the series store, evaluate the rules, export and
// persist transitions. Tests with Interval < 0 call it directly for
// deterministic rounds.
func (s *Server) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrape()
	fired, cleared := s.eng.Eval(s.set, s.svc.Metrics().Now().UnixNano())
	s.raised.Add(int64(fired))
	s.clearedC.Add(int64(cleared))
	s.firing.Set(int64(s.eng.Firing("")))
	if (fired > 0 || cleared > 0) && s.rs != nil {
		// Persistence is best-effort: a spooled or failed write never
		// stalls the scrape loop (the next transition retries).
		s.rs.Store(AlertsKey, "obs", EncodeAlerts(s.eng.Alerts()))
	}
}

// scrape pulls one snapshot from every target concurrently.
func (s *Server) scrape() {
	targets := s.scrapeTargets()
	s.targets.Set(int64(len(targets)))
	type res struct {
		addr string
		snap telemetry.Snapshot
		err  error
	}
	ch := make(chan res, len(targets))
	for _, addr := range targets {
		go func(addr string) {
			snap, err := wire.FetchSnapshot(s.svc.Client(), addr, "", s.cfg.Timeout)
			ch <- res{addr, snap, err}
		}(addr)
	}
	for range targets {
		r := <-ch
		if r.err != nil {
			s.scrapeErr.Inc()
			continue
		}
		s.scrapeOK.Inc()
		id := r.snap.ID
		if id == "" {
			id = r.addr
		}
		s.set.Ingest(id, r.snap)
	}
}

// scrapeTargets merges the static list with the roster hook, deduped,
// excluding the observatory's own endpoint.
func (s *Server) scrapeTargets() []string {
	seen := map[string]bool{}
	var out []string
	add := func(addr string) {
		if addr == "" || seen[addr] {
			return
		}
		seen[addr] = true
		out = append(out, addr)
	}
	for _, a := range s.cfg.Targets {
		add(a)
	}
	if s.cfg.Roster != nil {
		for _, a := range s.cfg.Roster() {
			add(a)
		}
	}
	return out
}

// query answers MsgObsQuery against the live store.
func (s *Server) query(q QueryRequest) []QuerySeries {
	var out []QuerySeries
	for _, k := range s.set.Keys() {
		if q.Daemon != "" && !strings.Contains(k.Daemon, q.Daemon) {
			continue
		}
		if q.Metric != "" && !strings.Contains(k.Metric, q.Metric) {
			continue
		}
		pts := s.set.Get(k)
		if q.MaxPoints > 0 && len(pts) > int(q.MaxPoints) {
			pts = pts[len(pts)-int(q.MaxPoints):]
		}
		qs := QuerySeries{Daemon: k.Daemon, Metric: k.Metric, Points: pts}
		if ex, ok := s.set.SlowestExemplar(k); ok {
			qs.ExemplarTrace, qs.ExemplarNanos = ex.TraceID, ex.Nanos
		}
		out = append(out, qs)
	}
	return out
}

// Alerts returns the current alert table, firing first.
func (s *Server) Alerts() []Alert { return s.eng.Alerts() }

// Firing counts currently-firing alerts for a role ("" = all) — the
// autoscaler's in-process hook.
func (s *Server) Firing(role string) int { return s.eng.Firing(role) }

// Series exposes the store for in-process consumers and tests.
func (s *Server) Series() *SeriesSet { return s.set }

// Metrics returns the daemon's own registry.
func (s *Server) Metrics() *telemetry.Registry { return s.svc.Metrics() }

// Close stops the scrape loop and the daemon.
func (s *Server) Close() error {
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.svc.Close()
}
