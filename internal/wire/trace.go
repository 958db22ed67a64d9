package wire

import "encoding/binary"

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

// ActiveSpan is one in-flight span the wire layer can annotate and
// finish. Implementations must be safe for use from the goroutine that
// created them; End must be called exactly once.
type ActiveSpan interface {
	// Context returns the context downstream packets should carry so
	// remote spans become children of this one.
	Context() TraceContext
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
	// sampling policy.
	StartSpan(name string, parent TraceContext) ActiveSpan
}

// UnsampledRecorder is an optional Tracer capability: a tracer that
// wants StartSpan even for contexts whose head-sampling decision was
// "no". Tail-based sampling implements it — unsampled spans are buffered
// briefly and the whole trace promoted when one ends slow or in error —
// so the wire layer must hand such tracers the spans head sampling would
// otherwise skip.
type UnsampledRecorder interface {
	WantUnsampled() bool
}

// wantUnsampled reports whether tr wants spans for head-unsampled
// contexts.
func wantUnsampled(tr Tracer) bool {
	u, ok := tr.(UnsampledRecorder)
	return ok && u.WantUnsampled()
}

// nopSpan is the span returned when no tracer is configured: it records
// nothing but preserves the parent context, so an untraced daemon in the
// middle of a traced request path still propagates causality downstream.
type nopSpan struct{ tc TraceContext }

func (n nopSpan) Context() TraceContext { return n.tc }
func (nopSpan) Annotate(string, string) {}
func (nopSpan) End(string)              {}

// StartSpan starts a span on tr, tolerating a nil tracer: instrumented
// code calls it unconditionally, and with tr == nil it returns a no-op
// span whose context is parent unchanged (propagation preserved, nothing
// recorded). This is the entry point all daemon instrumentation uses.
func StartSpan(tr Tracer, name string, parent TraceContext) ActiveSpan {
	if tr == nil {
		return nopSpan{tc: parent}
	}
	return tr.StartSpan(name, parent)
}

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
