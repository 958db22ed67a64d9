package dtrace

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Sink receives finished spans from a Tracer. Emit must be safe for
// concurrent use and must not block: tracing is best-effort and may
// never stall the request path. The Exporter is the production sink; the
// Capture sink collects in memory for tests and the simulation.
type Sink interface {
	Emit(s Span)
}

// Config parameterizes a Tracer.
type Config struct {
	// Service is the identity stamped on every span this tracer records
	// (conventionally the daemon's telemetry ID, "name@addr").
	Service string
	// SampleEvery is the head-based sampling policy for the traces this
	// tracer roots: 1 records every trace (the default), N > 1 records
	// one root in every N, and a negative value records none. The
	// decision is made once at the root and inherited by every child —
	// locally and, via the sampled bit on the wire, across daemons — so
	// traces are always complete or absent, never partial. Contexts of
	// unsampled traces still propagate; they cost the trailer bytes and
	// nothing else.
	SampleEvery int
	// Metrics is the daemon registry. Its clock stamps every span, so a
	// registry on virtual time (SetNow) gives spans virtual timestamps.
	// Nil means the real clock.
	Metrics *telemetry.Registry
	// Rand yields span/trace IDs (default: a process-seeded generator).
	// Tests inject a deterministic source. Must be safe for concurrent
	// use and should never return 0.
	Rand func() uint64
	// Sink receives finished sampled spans. Nil discards them (the tracer
	// then only propagates context, which is still useful to daemons
	// downstream).
	Sink Sink
}

// Tracer records causal spans and implements wire.Tracer. A nil *Tracer
// is valid everywhere: it records nothing and propagates parent contexts
// unchanged, so daemon code holds a *Tracer (or a wire.Tracer interface
// holding one) without nil checks.
type Tracer struct {
	cfg     Config
	roots   atomic.Uint64          // root counter driving 1-in-N sampling
	service atomic.Pointer[string] // span identity; SetService may race End
}

// idState is the process-wide splitmix64 state behind the default Rand.
var idState atomic.Uint64

func init() { idState.Store(rand.Uint64() | 1) }

// nextID is the default ID source: an atomic splitmix64 walk, cheap
// enough for unsampled hot paths and collision-free in practice.
func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// New returns a Tracer for cfg.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.Rand == nil {
		cfg.Rand = nextID
	}
	t := &Tracer{cfg: cfg}
	t.service.Store(&cfg.Service)
	return t
}

// Service returns the tracer's span identity ("" for a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return *t.service.Load()
}

// SetService updates the identity stamped on subsequently recorded
// spans. Daemons call this once their listen address is known, mirroring
// telemetry.Registry.SetID — possibly while already serving, so spans
// ending concurrently read the identity atomically.
func (t *Tracer) SetService(id string) {
	if t != nil {
		t.service.Store(&id)
	}
}

// StartSpan implements wire.Tracer. With a valid parent the span joins
// the parent's trace and inherits its sampling decision; with a zero
// parent it becomes the root of a new trace, sampled per SampleEvery.
// Unsampled spans are free apart from ID generation: they return the
// context to propagate and a nil span, recording nothing. A nil tracer
// propagates parent unchanged.
func (t *Tracer) StartSpan(name string, parent wire.TraceContext) (wire.TraceContext, wire.ActiveSpan) {
	if t == nil {
		return parent, nil
	}
	tc := wire.TraceContext{SpanID: t.cfg.Rand()}
	if parent.Valid() {
		tc.TraceID = parent.TraceID
		tc.ParentID = parent.SpanID
		tc.Sampled = parent.Sampled
	} else {
		tc.TraceID = t.cfg.Rand()
		tc.Sampled = t.sampleRoot()
	}
	if !tc.Sampled {
		return tc, nil
	}
	return tc, &span{t: t, name: name, tc: tc, start: t.cfg.Metrics.Now()}
}

// sampleRoot makes the head-based decision for a new trace.
func (t *Tracer) sampleRoot() bool {
	n := t.cfg.SampleEvery
	switch {
	case n < 0:
		return false
	case n <= 1:
		return true
	default:
		return (t.roots.Add(1)-1)%uint64(n) == 0
	}
}

// span is one recording span of a head-sampled trace.
type span struct {
	t     *Tracer
	name  string
	tc    wire.TraceContext
	start time.Time

	mu    sync.Mutex
	notes []Annotation
	done  bool
}

// Annotate implements wire.ActiveSpan.
func (s *span) Annotate(key, value string) {
	s.mu.Lock()
	if !s.done {
		s.notes = append(s.notes, Annotation{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End implements wire.ActiveSpan: it finishes the span and emits the
// record to the tracer's sink. Second and later calls are ignored.
func (s *span) End(outcome string) {
	now := s.t.cfg.Metrics.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	notes := s.notes
	s.mu.Unlock()
	if s.t.cfg.Sink == nil {
		return
	}
	if outcome == "" {
		outcome = "ok"
	}
	rec := Span{
		TraceID:     s.tc.TraceID,
		SpanID:      s.tc.SpanID,
		ParentID:    s.tc.ParentID,
		Service:     s.t.Service(),
		Name:        s.name,
		Start:       s.start.UnixNano(),
		Duration:    now.Sub(s.start).Nanoseconds(),
		Outcome:     outcome,
		Annotations: notes,
	}
	s.t.cfg.Sink.Emit(rec)
}

// Capture is an in-memory Sink for tests and the simulation.
type Capture struct {
	mu    sync.Mutex
	spans []Span
}

// Emit implements Sink.
func (c *Capture) Emit(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Spans returns a copy of everything captured so far.
func (c *Capture) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}
