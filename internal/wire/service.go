package wire

import (
	"time"

	"everyware/internal/telemetry"
)

// ServiceConfig parameterizes a Service. Only Name and ListenAddr are
// commonly set; everything else has the defaults daemons previously
// hand-assembled.
type ServiceConfig struct {
	// Name is the daemon's telemetry identity; after Start the shared
	// registry reports as "<Name>@<addr>".
	Name string
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// Transport selects the substrate for both the server's listener and
	// the client's dials. Nil means TCP.
	Transport Transport
	// Metrics is the shared telemetry registry for the server, the
	// client, and the owning daemon. Nil creates a fresh one.
	Metrics *telemetry.Registry
	// DialTimeout bounds the client's connection attempts (default 2s).
	DialTimeout time.Duration
	// Dialer overrides outbound connection setup (fault injection). When
	// set it takes precedence over Transport for dials.
	Dialer DialFunc
	// Retry is the client's retransmission policy (nil = historical
	// single-redial behaviour).
	Retry *RetryPolicy
	// Logf receives server diagnostics. Nil keeps the server default
	// (log.Printf in production, discard under `go test`).
	Logf func(format string, args ...any)
	// Silent discards server diagnostics unconditionally — the option
	// daemons use instead of assigning an empty Logf by hand.
	Silent bool
	// IdleTimeout closes server connections idle for this long (0 = no
	// limit).
	IdleTimeout time.Duration
	// Tracer, when set, enables causal distributed tracing for this
	// daemon: the server records a continuation span for every inbound
	// request carrying a trace context, and the client records call and
	// per-attempt child spans for outbound RPCs issued under one. The
	// tracer also owns the daemon's head-based sampling policy for the
	// traces it roots. Nil disables tracing (contexts from peers are still
	// stripped from payloads, just not recorded).
	Tracer Tracer
	// Window bounds pipelined in-flight calls per outbound connection
	// (0 means DefaultWindow).
	Window int
}

// Service is the unified daemon runtime: one constructor bundling the
// lingua franca server, an outbound client, a shared telemetry registry,
// and graceful shutdown. Every EveryWare daemon — Gossip, scheduler,
// persistent state manager, logging server, the Globus/Legion/NetSolve
// adapters, the applet gateway — runs on a Service, so transport
// selection, fault hooks, and introspection behave identically across
// the fleet.
type Service struct {
	name       string
	listenAddr string
	srv        *Server
	client     *Client
	metrics    *telemetry.Registry
}

// NewService assembles a Service. Handlers are registered with Handle
// (or on Server() directly); Start binds the listener.
func NewService(cfg ServiceConfig) *Service {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	srv := NewServer()
	srv.SetMetrics(reg)
	srv.Transport = cfg.Transport
	srv.IdleTimeout = cfg.IdleTimeout
	switch {
	case cfg.Silent:
		srv.Logf = func(string, ...any) {}
	case cfg.Logf != nil:
		srv.Logf = cfg.Logf
	}
	srv.Tracer = cfg.Tracer
	client := NewClient(cfg.DialTimeout)
	client.Transport = cfg.Transport
	client.Dialer = cfg.Dialer
	client.Retry = cfg.Retry
	client.Metrics = reg
	client.Tracer = cfg.Tracer
	client.Window = cfg.Window
	return &Service{
		name:       cfg.Name,
		listenAddr: cfg.ListenAddr,
		srv:        srv,
		client:     client,
		metrics:    reg,
	}
}

// Handle registers h for message type t.
func (s *Service) Handle(t MsgType, h Handler) { s.srv.Register(t, h) }

// Start binds the listener and stamps the telemetry identity
// ("<Name>@<addr>", unless a shared registry already carries one). It
// returns the bound address.
func (s *Service) Start() (string, error) {
	addr, err := s.srv.Listen(s.listenAddr)
	if err != nil {
		return "", err
	}
	if s.name != "" && s.metrics.ID() == "" {
		s.metrics.SetID(s.name + "@" + addr)
	}
	return addr, nil
}

// StartAt binds at addr, overriding the configured ListenAddr. Daemons
// whose bind address is chosen at start time rather than construction
// time (the Globus and Legion adapters) use this instead of Start.
func (s *Service) StartAt(addr string) (string, error) {
	s.listenAddr = addr
	return s.Start()
}

// Addr returns the bound listen address ("" before Start).
func (s *Service) Addr() string { return s.srv.Addr() }

// Server exposes the underlying lingua franca server.
func (s *Service) Server() *Server { return s.srv }

// Client exposes the service's outbound client.
func (s *Service) Client() *Client { return s.client }

// Metrics returns the shared telemetry registry.
func (s *Service) Metrics() *telemetry.Registry { return s.metrics }

// Close shuts down the client's cached connections, then the server
// (stopping the accept loop and draining connection goroutines).
func (s *Service) Close() error {
	s.client.Close()
	return s.srv.Close()
}
