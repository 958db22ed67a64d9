// Package dtrace implements causal distributed tracing for EveryWare:
// span records with trace/span/parent identity, an injectable-clock
// tracer implementing the wire.Tracer hook, head-based sampling, and a
// batched best-effort exporter that ships finished spans to a trace
// collector built on the logging service (§3.1.3 of the paper).
//
// The paper's logging servers record the performance reports that drive
// scheduling decisions before they are discarded; dtrace extends that
// idea to causality. Every packet on the lingua franca can carry a
// trace-context envelope (see internal/wire trace.go for the wire
// format), so one TraceID stitches a client report, the scheduling
// decision it triggered, the forecast read inside that decision, and the
// pstate checkpoint underneath into a single cross-daemon tree — retries
// and failover attempts included, each as a child span.
//
// Naming note: internal/trace is the evaluation time-series package used
// to produce the paper's figures; request tracing lives here, in
// internal/dtrace.
//
// The tracer's clock is injectable (like telemetry.Registry's), so spans
// carry virtual timestamps when driven by the internal/simgrid
// discrete-event engine and real ones in live daemons, with identical
// instrumentation code.
package dtrace

import (
	"fmt"

	"everyware/internal/wire"
)

// Lingua franca message types for the trace collector. They live in the
// logging service's 40-49 range because the collector is hosted by
// logsvc.Server; the constants are defined here (and imported by logsvc)
// so the exporter does not depend on the logsvc package.
const (
	// MsgTraceExport appends a batch of finished spans to the collector
	// (payload: EncodeSpans). Best-effort: exporters do not retry.
	MsgTraceExport wire.MsgType = 43
	// MsgTraceFetch returns collected spans (payload: max uint32 count,
	// trace id uint64 filter, 0 = all traces). Reply: EncodeSpans.
	MsgTraceFetch wire.MsgType = 44
)

// Fetch is a read and safe to retransmit. MsgTraceExport is not
// idempotent: a retransmit would duplicate span records, and export is
// best-effort by design.
func init() {
	wire.Define(MsgTraceExport, "trace.export", false)
	wire.Define(MsgTraceFetch, "trace.fetch", true)
}

// Annotation is one key=value note attached to a span.
type Annotation struct {
	Key   string
	Value string
}

// Span is one finished span record: a named interval of work in one
// daemon, positioned in a trace tree by (TraceID, SpanID, ParentID).
type Span struct {
	// TraceID identifies the end-to-end request tree the span belongs to.
	TraceID uint64
	// SpanID uniquely identifies this span within the trace.
	SpanID uint64
	// ParentID is the parent span (zero for the trace root).
	ParentID uint64
	// Service identifies the daemon that recorded the span
	// (e.g. "sched@host:port").
	Service string
	// Name is the operation ("sched.report", "wire.attempt", ...).
	Name string
	// Start is the span's start time in nanoseconds on the recording
	// tracer's clock — Unix time in live daemons, virtual time under
	// simgrid. Timestamps are comparable within one clock domain only.
	Start int64
	// Duration is the span's elapsed time in nanoseconds.
	Duration int64
	// Outcome classifies how the work ended ("ok", "timeout", "error",
	// "reset", ...); the same classes telemetry uses.
	Outcome string
	// Annotations are the span's key=value notes, in attachment order.
	Annotations []Annotation
}

// End returns the span's end time (Start + Duration) in nanoseconds.
func (s Span) End() int64 { return s.Start + s.Duration }

// String renders a one-line summary for logs and test failures.
func (s Span) String() string {
	return fmt.Sprintf("%016x/%016x<-%016x %s %s %s", s.TraceID, s.SpanID, s.ParentID, s.Service, s.Name, s.Outcome)
}

// encodeSpanInto appends one span to e.
func encodeSpanInto(e *wire.Encoder, s Span) {
	e.PutUint64(s.TraceID)
	e.PutUint64(s.SpanID)
	e.PutUint64(s.ParentID)
	e.PutString(s.Service)
	e.PutString(s.Name)
	e.PutInt64(s.Start)
	e.PutInt64(s.Duration)
	e.PutString(s.Outcome)
	e.PutUint32(uint32(len(s.Annotations)))
	for _, a := range s.Annotations {
		e.PutString(a.Key)
		e.PutString(a.Value)
	}
}

// decodeSpanFrom parses one span from d.
func decodeSpanFrom(d *wire.Decoder) (Span, error) {
	var s Span
	var err error
	if s.TraceID, err = d.Uint64(); err != nil {
		return s, err
	}
	if s.SpanID, err = d.Uint64(); err != nil {
		return s, err
	}
	if s.ParentID, err = d.Uint64(); err != nil {
		return s, err
	}
	if s.Service, err = d.String(); err != nil {
		return s, err
	}
	if s.Name, err = d.String(); err != nil {
		return s, err
	}
	if s.Start, err = d.Int64(); err != nil {
		return s, err
	}
	if s.Duration, err = d.Int64(); err != nil {
		return s, err
	}
	if s.Outcome, err = d.String(); err != nil {
		return s, err
	}
	n, err := d.Count(8) // each annotation is at least two length prefixes
	if err != nil {
		return s, err
	}
	if n > 0 {
		s.Annotations = make([]Annotation, 0, n)
		for i := 0; i < n; i++ {
			var a Annotation
			if a.Key, err = d.String(); err != nil {
				return s, err
			}
			if a.Value, err = d.String(); err != nil {
				return s, err
			}
			s.Annotations = append(s.Annotations, a)
		}
	}
	return s, nil
}

// SpanList is a span batch as a wire message (the MsgTraceExport payload
// and MsgTraceFetch reply format): it encodes in place into a pooled
// request/reply buffer.
type SpanList []Span

// EncodeWire implements wire.Message.
func (spans SpanList) EncodeWire(e *wire.Encoder) {
	e.PutUint32(uint32(len(spans)))
	for _, s := range spans {
		encodeSpanInto(e, s)
	}
}

// EncodeSpans serializes a batch of spans into a fresh buffer.
func EncodeSpans(spans []Span) []byte {
	var e wire.Encoder
	SpanList(spans).EncodeWire(&e)
	return e.Bytes()
}

// DecodeSpans parses a batch of spans.
func DecodeSpans(p []byte) ([]Span, error) {
	d := wire.NewDecoder(p)
	n, err := d.Count(40) // fixed span fields alone are >40 bytes
	if err != nil {
		return nil, err
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		s, err := decodeSpanFrom(d)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Annotation lookup: Get returns the value of the first annotation with
// key, and whether it was present.
func (s Span) Get(key string) (string, bool) {
	for _, a := range s.Annotations {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}
