package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"everyware/internal/telemetry"
)

// underTest reports whether the process is a `go test` binary. Server
// diagnostics default to silence there: per-connection error noise
// (peers closing mid-call, chaos-injected resets) would otherwise leak
// into every test's output.
var underTest = strings.HasSuffix(os.Args[0], ".test") ||
	strings.HasSuffix(os.Args[0], ".test.exe")

func defaultLogf(format string, args ...any) {
	if underTest {
		return
	}
	log.Printf(format, args...)
}

// Handler processes one request packet and returns the response packet, or
// an error which the server converts into a MsgError reply. Handlers must
// be safe for concurrent use.
type Handler interface {
	Handle(remote string, req *Packet) (*Packet, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(remote string, req *Packet) (*Packet, error)

// Handle calls f.
func (f HandlerFunc) Handle(remote string, req *Packet) (*Packet, error) {
	return f(remote, req)
}

// Server is a lingua franca service endpoint: it accepts connections
// from its Transport and dispatches packets to handlers registered per
// message type. Every EveryWare daemon (Gossip, scheduler, persistent
// state manager, logging server) is built on this type.
type Server struct {
	mu       sync.RWMutex
	handlers map[MsgType]Handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	// Transport selects the substrate Listen binds on. Nil means TCP.
	// Set before Listen.
	Transport Transport
	// Logf receives diagnostic messages; defaults to log.Printf, except
	// under `go test` where per-connection noise would pollute test
	// output — there the default discards. Settable before Listen.
	Logf func(format string, args ...any)
	// IdleTimeout closes connections with no traffic for this long.
	// Zero means no idle limit.
	IdleTimeout time.Duration
	// Tracer, when set before Listen, records a continuation span for
	// every request that arrives carrying a trace context: the span is a
	// child of the sender's (attempt) span and becomes the parent seen by
	// handlers via req.Trace, so downstream RPCs a handler issues extend
	// the same trace. Requests without a context are never traced — the
	// server does not start traces.
	Tracer Tracer

	// metrics records per-type service times and answers MsgTelemetry.
	// NewServer installs a fresh registry; SetMetrics swaps in a shared one.
	metrics *telemetry.Registry
	// fams caches the per-message-type "wire.server.handle.t<N>" span
	// family so the hot path records service time without a per-request
	// name concatenation. Invalidated by SetMetrics.
	fams map[MsgType]*telemetry.SpanFamily
}

// NewServer returns a Server with no handlers registered. MsgPing is
// answered automatically (with MsgPong) unless overridden.
func NewServer() *Server {
	s := &Server{
		handlers: make(map[MsgType]Handler),
		conns:    make(map[net.Conn]struct{}),
		Logf:     defaultLogf,
		metrics:  telemetry.NewRegistry(),
		fams:     make(map[MsgType]*telemetry.SpanFamily),
	}
	s.Register(MsgPing, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		// In-place echo: the reply reuses the request packet and its
		// pooled payload buffer, so a ping round trip allocates nothing.
		req.Type = MsgPong
		return req, nil
	}))
	s.Register(MsgTelemetry, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		prefix := ""
		if len(req.Payload) > 0 {
			p, err := NewDecoder(req.Payload).String()
			if err != nil {
				return nil, err
			}
			prefix = p
		}
		// Refresh the pool/pipeline gauges at snapshot time so every
		// MsgTelemetry poll (and thus ew top) sees current values. The
		// stats are process-wide; each daemon reports the same totals.
		reg := s.Metrics()
		gets, puts, misses := PoolStats()
		reg.Gauge("wire.pool.get").Set(gets)
		reg.Gauge("wire.pool.put").Set(puts)
		reg.Gauge("wire.pool.miss").Set(misses)
		reg.Gauge("wire.pipeline.inflight").Set(PipelineInflight())
		return &Packet{Type: MsgTelemetry, Payload: EncodeSnapshot(reg.Snapshot(prefix))}, nil
	}))
	return s
}

// SetMetrics replaces the server's metrics registry — daemons call this so
// the server, its clients, and the health tracker all report into one
// registry, which is then what MsgTelemetry dumps.
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	s.metrics = reg
	s.fams = make(map[MsgType]*telemetry.SpanFamily)
	s.mu.Unlock()
}

// fam returns the cached handle-span family for message type t, creating
// it against the current registry on first use.
func (s *Server) fam(t MsgType) *telemetry.SpanFamily {
	s.mu.RLock()
	f := s.fams[t]
	s.mu.RUnlock()
	if f != nil {
		return f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f = s.fams[t]; f != nil {
		return f
	}
	f = s.metrics.SpanFamily("wire.server.handle.t" + strconv.Itoa(int(t)))
	s.fams[t] = f
	return f
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *telemetry.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metrics
}

// Register installs h for message type t, replacing any previous handler.
// It panics unless t is a live row of the message table: a daemon that
// would serve an undeclared or retired type fails at construction, never
// on the serve path.
func (s *Server) Register(t MsgType, h Handler) {
	if m, ok := msgTable[t]; !ok || m.Reserved {
		panic(fmt.Sprintf("wire: handler for message type %d, which the message table does not hold as live (%q)", t, m.Name))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[t] = h
}

// Listen binds to addr on the server's Transport (":0" for an ephemeral
// address) and begins accepting in a background goroutine. It returns
// the bound address.
func (s *Server) Listen(addr string) (string, error) {
	tr := s.Transport
	if tr == nil {
		tr = TCP
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.RLock()
			closed := s.closed
			s.mu.RUnlock()
			if !closed {
				s.Logf("wire: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	remote := nc.RemoteAddr().String()
	for {
		if s.IdleTimeout > 0 {
			if err := nc.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		req, err := ReadPacket(nc)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !IsTimeout(err) {
				s.Logf("wire: read from %s: %v", remote, err)
			}
			return
		}
		// Recognise and strip an inbound trace-context trailer (and the
		// reserved tag bit) regardless of whether this server traces, so
		// handlers always see the bare payload and correlation tag.
		req.ExtractTrace()
		s.mu.RLock()
		h, ok := s.handlers[req.Type]
		s.mu.RUnlock()
		var resp *Packet
		if !ok {
			resp = ErrorPacket(req.Tag, "no handler for message type")
		} else {
			var serve ActiveSpan
			// Unsampled contexts skip the continuation span: the inbound
			// context already reaches the handler on req.Trace, and an
			// unsampled trace records nothing anywhere by design — unless
			// the tracer buffers unsampled spans for tail-based promotion.
			if s.Tracer != nil && req.Trace.Valid() && (req.Trace.Sampled || wantUnsampled(s.Tracer)) {
				serve = s.Tracer.StartSpan("wire.serve."+MsgName(req.Type), req.Trace)
				serve.Annotate("peer", remote)
				// Handlers see the serve span as their parent so the RPCs
				// they issue downstream nest under this hop.
				req.Trace = serve.Context()
			}
			// In-place echo handlers mutate req.Type (and may release or
			// reuse the packet); capture the arrival type and trace ID
			// first. The trace ID becomes the handle histogram's exemplar,
			// linking a latency spike to a trace — present whether or not
			// the trace is head-sampled, since contexts always propagate.
			reqType := req.Type
			tid := req.Trace.TraceID
			sp := s.fam(reqType).Start()
			r, herr := h.Handle(remote, req)
			if herr != nil {
				sp.EndTraced("err", tid)
			} else {
				sp.EndTraced(telemetry.OutcomeOK, tid)
			}
			if serve != nil {
				if herr != nil {
					serve.End("error")
				} else {
					serve.End(string(telemetry.OutcomeOK))
				}
			}
			switch {
			case herr != nil:
				resp = ErrorPacket(req.Tag, herr.Error())
			case r == nil:
				// One-way message; no reply. The handler is done with the
				// request, so its pooled buffers go back now.
				req.Release()
				continue
			default:
				resp = r
				resp.Tag = req.Tag
			}
		}
		// Responses never carry a trace envelope: causality flows in the
		// request direction only (see trace.go).
		resp.Trace = TraceContext{}
		werr := WritePacket(nc, resp)
		// The reply is on the wire: both packets' pooled buffers go back.
		// A handler may answer with the request packet itself (in-place
		// echo) or with a fresh packet whose payload aliases the request's
		// — releasing after the write and releasing req exactly once keeps
		// both patterns safe.
		if resp != req {
			req.Release()
		}
		resp.Release()
		if werr != nil {
			s.Logf("wire: write to %s: %v", remote, werr)
			return
		}
	}
}

// Close stops accepting, closes all live connections, and waits for the
// connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
