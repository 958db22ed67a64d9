package wire

import (
	"encoding/binary"

	"everyware/internal/telemetry"
)

// This file is the lingua franca's half of causal distributed tracing:
// the trace-context envelope every Packet can carry, and the minimal
// tracer hook the wire layer calls so request paths are recorded as
// parent/child span trees across daemons. The span records themselves —
// IDs, annotations, sampling, export to the collector — live in
// everyware/internal/dtrace; the wire layer depends only on the small
// interfaces below so the packet layer stays dependency-free.
//
// Wire format. The envelope is carried as a fixed-size trailer appended
// after the message payload, inside the declared packet length, and its
// presence is signalled by a reserved bit in the correlation tag:
//
//	payload || TraceID(8) TraceSpanID(8) TraceParentID(8) flags(1) "EWTC"(4)
//
// This is deliberately invisible to peers built before tracing existed:
// the packet header (magic, version, type, tag, length) is unchanged, and
// every payload decoder in the system reads fields sequentially from the
// front and ignores trailing bytes, so an old peer processes a traced
// request exactly as an untraced one. An old peer never sets the tag bit
// itself (tags are small sequential counters), so old->new frames simply
// carry no context. The tag bit survives the old peer's response echo,
// which is why extraction additionally demands the trailing magic and a
// valid flags byte, and why it is only performed on the server
// (request-receiving) side, where the bit is always accompanied by a
// trailer. Responses never carry an envelope: causality flows in the
// request direction, and each side records its own spans.
const (
	// traceTagBit marks a correlation tag whose packet carries a
	// trace-context trailer. Conn tag counters never reach this bit.
	traceTagBit = uint64(1) << 63
	// traceTrailerLen is the encoded envelope size:
	// trace id(8) + span id(8) + parent span id(8) + flags(1) + magic(4).
	traceTrailerLen = 8 + 8 + 8 + 1 + 4
	// traceTrailerMagic ends every envelope ("EWTC").
	traceTrailerMagic = 0x45575443
	// traceFlagSampled marks a context the head-based sampler selected for
	// recording; all other flag bits must be zero in this version.
	traceFlagSampled = 0x01
)

// TraceContext is the causal identity a packet carries: which end-to-end
// trace the request belongs to, which span is its direct parent, and
// whether the trace's head-based sampling decision selected it for
// recording. The zero value means "no trace".
type TraceContext struct {
	// TraceID identifies the end-to-end request tree; all spans of one
	// trace share it. Zero means no context.
	TraceID uint64
	// SpanID identifies the sender's span; the receiver's spans are
	// recorded as its children.
	SpanID uint64
	// ParentID is the sender's own parent span (zero at the root). It
	// travels on the wire so a collector missing the sender's span record
	// can still stitch the tree.
	ParentID uint64
	// Sampled is the head-based sampling decision made at the trace root:
	// when false, context still propagates (so a trace stays all-or-
	// nothing) but no span records are emitted.
	Sampled bool
}

// Valid reports whether tc carries a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// ActiveSpan is one recording span the wire layer can annotate and
// finish. Implementations must be safe for use from the goroutine that
// created them; End must be called exactly once.
type ActiveSpan interface {
	// Annotate attaches one key=value note to the span.
	Annotate(key, value string)
	// End finishes the span under the given outcome class ("ok",
	// "timeout", "error", ...).
	End(outcome string)
}

// Tracer is the hook the wire layer (and every instrumented daemon)
// records spans through. The concrete implementation is
// everyware/internal/dtrace.Tracer; the interface lives here so the wire
// package does not depend on it.
type Tracer interface {
	// StartSpan begins a span named name. A valid parent makes the span
	// its child (inheriting the trace and its sampling decision); a zero
	// parent starts a new trace, subject to the tracer's head-based
	// sampling policy. It returns the span's context, which downstream
	// packets carry, and the span to finish — nil when the trace is
	// unsampled and nothing is recorded.
	StartSpan(name string, parent TraceContext) (TraceContext, ActiveSpan)
}

// Op is one instrumented operation: one start, one End. It records the
// duration into the histogram "<family>.<outcome>" when started with a
// family, and the trace span when the operation's trace is sampled. Op
// is a value: without a tracer, or on an unsampled trace, it holds no
// interface value and starting, annotating and ending it allocate
// nothing.
type Op struct {
	timer telemetry.Span
	span  ActiveSpan // nil unless recording a sampled span
	tc    TraceContext
}

// StartOp starts an operation named name. fam, when non-nil, times it
// on its registry's clock. tr, when non-nil, starts its span as a child
// of parent, or as a new trace's root for a zero parent. Without a
// tracer the operation's context is parent unchanged, so an untraced
// daemon in the middle of a traced request path still propagates
// causality downstream.
func StartOp(fam *telemetry.SpanFamily, tr Tracer, name string, parent TraceContext) Op {
	op := Op{timer: fam.Start(), tc: parent}
	if tr != nil {
		op.tc, op.span = tr.StartSpan(name, parent)
	}
	return op
}

// Context returns the context the operation's downstream requests carry.
func (o Op) Context() TraceContext { return o.tc }

// Annotate attaches a key=value note to the span, if one is recording.
func (o Op) Annotate(key, value string) {
	if o.span != nil {
		o.span.Annotate(key, value)
	}
}

// End finishes the operation under outcome. The histogram's exemplar is
// the trace ID only when the trace is sampled, so an exemplar always
// names a trace the collector can hold. Ending the zero Op does nothing.
func (o Op) End(outcome telemetry.Outcome) {
	var exemplar uint64
	if o.tc.Sampled {
		exemplar = o.tc.TraceID
	}
	o.timer.EndTraced(outcome, exemplar)
	if o.span != nil {
		o.span.End(string(outcome))
	}
}

// spanTracer returns tr and the span name prefix+MsgName(t) when tc is a
// sampled trace, and a nil tracer otherwise: the wire layer never roots
// a trace, and an unsampled trace records nothing anywhere, so its fast
// path pays for the trailer bytes only. It tests tc.TraceID rather than
// calling Valid to stay within the inliner's budget.
func spanTracer(tr Tracer, tc TraceContext, prefix string, t MsgType) (Tracer, string) {
	if tr != nil && tc.Sampled && tc.TraceID != 0 {
		return tr, spanName(prefix, t)
	}
	return nil, ""
}

// spanName is kept out of line so that spanTracer's untraced check
// inlines into the wire hot paths.
//
//go:noinline
func spanName(prefix string, t MsgType) string { return prefix + MsgName(t) }

// appendTraceTrailer appends tc's wire envelope to buf.
func appendTraceTrailer(buf []byte, tc TraceContext) []byte {
	buf = binary.BigEndian.AppendUint64(buf, tc.TraceID)
	buf = binary.BigEndian.AppendUint64(buf, tc.SpanID)
	buf = binary.BigEndian.AppendUint64(buf, tc.ParentID)
	var flags byte
	if tc.Sampled {
		flags = traceFlagSampled
	}
	buf = append(buf, flags)
	return binary.BigEndian.AppendUint32(buf, traceTrailerMagic)
}

// ExtractTrace recognises and strips a trace-context trailer from p,
// populating p.Trace. It is called on the request-receiving side (the
// server) after ReadPacket; see the format comment above for why the tag
// bit alone is not trusted. It reports whether a context was extracted.
func (p *Packet) ExtractTrace() bool {
	if p.Tag&traceTagBit == 0 {
		return false
	}
	// The bit is stripped unconditionally: whether or not a trailer is
	// present (an old peer may echo the bit on an untraced response), the
	// tag's low bits are the correlation value.
	p.Tag &^= traceTagBit
	n := len(p.Payload)
	if n < traceTrailerLen {
		return false
	}
	t := p.Payload[n-traceTrailerLen:]
	if binary.BigEndian.Uint32(t[25:]) != traceTrailerMagic {
		return false
	}
	flags := t[24]
	if flags&^traceFlagSampled != 0 {
		return false // unknown flag bits: not an envelope this version wrote
	}
	tc := TraceContext{
		TraceID:  binary.BigEndian.Uint64(t[0:]),
		SpanID:   binary.BigEndian.Uint64(t[8:]),
		ParentID: binary.BigEndian.Uint64(t[16:]),
		Sampled:  flags&traceFlagSampled != 0,
	}
	if !tc.Valid() {
		return false
	}
	p.Trace = tc
	p.Payload = p.Payload[:n-traceTrailerLen]
	return true
}

// itoa is a tiny allocation-conscious uint formatter (strconv would be
// fine; this keeps the hot span-name path dependency-free).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
