// Package logsvc implements the EveryWare distributed logging service
// (section 3.1.3 of the paper).
//
// Scheduling servers base decisions partly on the performance information
// clients report; before that information is discarded it is forwarded to
// a logging server so it can be recorded. Running logging as a separate
// service lets the application limit and control the storage load it
// generates (the same footprint concern as the persistent state
// managers). The recorded stream is also what the evaluation section's
// figures are computed from.
package logsvc

import (
	"fmt"
	"os"
	"sync"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Lingua franca message types for the logging service (range 40-49).
// The trace collector's MsgTraceExport (43) and MsgTraceFetch (44) also
// live in this range; their constants are defined in internal/dtrace so
// the span exporter does not depend on this package.
const (
	// MsgAppend appends one entry (payload: Entry).
	MsgAppend wire.MsgType = 40
)

// MsgAppend is not idempotent: a retransmit would duplicate the log
// entry (appends are best-effort anyway).
func init() {
	wire.Define(MsgAppend, "log.append", false)
	wire.Reserve(41, "log.tail")
	wire.Reserve(42, "log.stats")
}

// Entry is one log record.
type Entry struct {
	// Unix is the origin timestamp in nanoseconds.
	Unix int64
	// Source identifies the reporting component (e.g. a client address).
	Source string
	// Level is a free-form severity/category ("info", "perf", "error").
	Level string
	// Line is the message text.
	Line string
}

// EncodeWire implements wire.Message: the entry encodes in place into a
// pooled request buffer, reserving its full size once.
func (en Entry) EncodeWire(e *wire.Encoder) {
	e.Grow(8 + 4 + len(en.Source) + 4 + len(en.Level) + 4 + len(en.Line))
	e.PutInt64(en.Unix)
	e.PutString(en.Source)
	e.PutString(en.Level)
	e.PutString(en.Line)
}

// EncodeEntry serializes one entry into a fresh buffer.
func EncodeEntry(en Entry) []byte {
	var e wire.Encoder
	en.EncodeWire(&e)
	return e.Bytes()
}

// DecodeEntry parses one entry.
func DecodeEntry(p []byte) (Entry, error) {
	d := wire.NewDecoder(p)
	var en Entry
	var err error
	if en.Unix, err = d.Int64(); err != nil {
		return en, err
	}
	if en.Source, err = d.String(); err != nil {
		return en, err
	}
	if en.Level, err = d.String(); err != nil {
		return en, err
	}
	en.Line, err = d.String()
	return en, err
}

// ServerConfig parameterizes a logging server.
type ServerConfig struct {
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// MaxEntries bounds the in-memory ring buffer (default 65536).
	MaxEntries int
	// File, if set, appends entries as text lines to this path.
	File string
	// MaxFileBytes stops file appends beyond this size (0 = unlimited) —
	// the storage-load control the paper calls out.
	MaxFileBytes int64
	// MaxSpans bounds the trace collector's in-memory span ring
	// (default 16384). The same storage-load control applies to traces:
	// when the ring is full the oldest spans are evicted and the eviction
	// is counted, never silent.
	MaxSpans int
	// Transport selects the wire substrate the listener binds on. Nil
	// means TCP.
	Transport wire.Transport
	// Tracer enables causal tracing of the logging daemon's own RPCs.
	Tracer wire.Tracer
}

// Server is one logging daemon. Besides the paper's entry log it hosts
// the trace collector: daemons export finished dtrace spans here
// (MsgTraceExport) and viewers fetch them back (MsgTraceFetch).
type Server struct {
	cfg ServerConfig
	svc *wire.Service
	reg *telemetry.Registry

	mu        sync.Mutex
	ring      []Entry
	next      int
	full      bool
	appended  int64
	dropped   int64
	evicted   int64
	fileBytes int64
	f         *os.File

	spanRing    []dtrace.Span
	spanNext    int
	spanFull    bool
	spanCount   int64
	spanEvicted int64
}

// NewServer creates a logging server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 65536
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 16384
	}
	svc := wire.NewService(wire.ServiceConfig{
		Name:       "logsvc",
		ListenAddr: cfg.ListenAddr,
		Transport:  cfg.Transport,
		Silent:     true,
		Tracer:     cfg.Tracer,
	})
	s := &Server{
		cfg:      cfg,
		svc:      svc,
		reg:      svc.Metrics(),
		ring:     make([]Entry, cfg.MaxEntries),
		spanRing: make([]dtrace.Span, cfg.MaxSpans),
	}
	if cfg.File != "" {
		f, err := os.OpenFile(cfg.File, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		s.f = f
		s.fileBytes = st.Size()
	}
	svc.Handle(MsgAppend, wire.HandlerFunc(s.handleAppend))
	svc.Handle(dtrace.MsgTraceExport, wire.HandlerFunc(s.handleTraceExport))
	svc.Handle(dtrace.MsgTraceFetch, wire.HandlerFunc(s.handleTraceFetch))
	return s, nil
}

// Start binds the listener and returns the bound address.
func (s *Server) Start() (string, error) { return s.svc.Start() }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.svc.Addr() }

// Close stops the daemon and closes the log file.
func (s *Server) Close() {
	s.svc.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Append records one entry directly (in-process use). The ring is
// bounded: once full, each new entry evicts the oldest one and the
// eviction is counted ("logsvc.dropped"), so log loss under pressure is
// visible in ew-top rather than silent.
func (s *Server) Append(en Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		s.evicted++
		s.reg.Counter("logsvc.dropped").Inc()
	}
	s.ring[s.next] = en
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.appended++
	if s.f != nil {
		line := fmt.Sprintf("%d\t%s\t%s\t%s\n", en.Unix, en.Source, en.Level, en.Line)
		if s.cfg.MaxFileBytes > 0 && s.fileBytes+int64(len(line)) > s.cfg.MaxFileBytes {
			s.dropped++
			return
		}
		if n, err := s.f.WriteString(line); err == nil {
			s.fileBytes += int64(n)
		}
	}
}

// Tail returns the most recent n entries, oldest first.
func (s *Server) Tail(n int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.next
	if s.full {
		size = len(s.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Entry, 0, n)
	start := s.next - n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Stats returns (entries appended, file lines dropped by quota).
func (s *Server) Stats() (appended, dropped int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended, s.dropped
}

// StatsDetail is the server's full accounting. RingDropped and
// SpanDropped surface data loss that used to be silent: entries (and
// spans) evicted from a full ring to make room for new ones.
type StatsDetail struct {
	// Appended counts entries ever accepted.
	Appended int64
	// FileDropped counts entries not written to the log file because of
	// the MaxFileBytes quota.
	FileDropped int64
	// RingDropped counts entries evicted from the full in-memory ring.
	RingDropped int64
	// Spans counts trace spans ever accepted by the collector.
	Spans int64
	// SpanDropped counts spans evicted from the full span ring.
	SpanDropped int64
}

// StatsDetail returns the full accounting.
func (s *Server) StatsDetail() StatsDetail {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsDetail{
		Appended:    s.appended,
		FileDropped: s.dropped,
		RingDropped: s.evicted,
		Spans:       s.spanCount,
		SpanDropped: s.spanEvicted,
	}
}

// CollectSpans records finished trace spans directly (in-process use;
// the MsgTraceExport handler calls it). The span ring is bounded like
// the entry ring: full means oldest-evicted-and-counted, never silent.
func (s *Server) CollectSpans(spans []dtrace.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		if s.spanFull {
			s.spanEvicted++
			s.reg.Counter("logsvc.trace.dropped").Inc()
		}
		s.spanRing[s.spanNext] = sp
		s.spanNext++
		if s.spanNext == len(s.spanRing) {
			s.spanNext = 0
			s.spanFull = true
		}
		s.spanCount++
	}
	s.reg.Counter("logsvc.trace.spans").Add(int64(len(spans)))
}

// Spans returns up to max collected spans, oldest first, filtered to one
// trace when traceID is non-zero. max <= 0 means no limit; when the
// limit bites, the most recent spans win (the interesting traces are the
// live ones).
func (s *Server) Spans(max int, traceID uint64) []dtrace.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.spanNext
	if s.spanFull {
		size = len(s.spanRing)
	}
	start := 0
	if s.spanFull {
		start = s.spanNext
	}
	out := make([]dtrace.Span, 0, size)
	for i := 0; i < size; i++ {
		sp := s.spanRing[(start+i)%len(s.spanRing)]
		if traceID != 0 && sp.TraceID != traceID {
			continue
		}
		out = append(out, sp)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

func (s *Server) handleAppend(_ string, req *wire.Packet) (*wire.Packet, error) {
	en, err := DecodeEntry(req.Payload)
	if err != nil {
		return nil, err
	}
	s.Append(en)
	return wire.Reply(MsgAppend, nil), nil
}

func (s *Server) handleTraceExport(_ string, req *wire.Packet) (*wire.Packet, error) {
	spans, err := dtrace.DecodeSpans(req.Payload)
	if err != nil {
		return nil, err
	}
	s.CollectSpans(spans)
	return wire.Reply(dtrace.MsgTraceExport, nil), nil
}

func (s *Server) handleTraceFetch(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	max, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	traceID, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	spans := s.Spans(int(max), traceID)
	return wire.Reply(dtrace.MsgTraceFetch, dtrace.SpanList(spans)), nil
}

// Client reports log entries to a logging server, stamping them on the
// clock of wc's metrics registry.
type Client struct {
	wc      *wire.Client
	addr    string
	source  string
	timeout time.Duration
}

// NewClient returns a logging client reporting as source.
func NewClient(wc *wire.Client, addr, source string, timeout time.Duration) *Client {
	return &Client{wc: wc, addr: addr, source: source, timeout: timeout}
}

// Log appends one entry.
func (c *Client) Log(level, format string, args ...any) error {
	en := Entry{
		Unix:   c.wc.Metrics.Now().UnixNano(),
		Source: c.source,
		Level:  level,
		Line:   fmt.Sprintf(format, args...),
	}
	return c.wc.CallMsg(c.addr, MsgAppend, en, nil, c.timeout)
}
