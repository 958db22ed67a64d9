package wire

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// These tests pin the backwards-compatibility contract of the
// trace-context envelope: a peer built before tracing existed ("old")
// and a tracing peer ("new") must interoperate in both directions.
// "Old" is simulated precisely: ReadPacket without ExtractTrace, payload
// decoders that read fields from the front and ignore trailing bytes,
// and response echoes that copy the request tag verbatim.

// sampleContext is a representative non-zero context.
var sampleContext = TraceContext{
	TraceID:  0x4f1c9a2b00d1e5f7,
	SpanID:   0x1122334455667788,
	ParentID: 0x99aabbccddeeff00,
	Sampled:  true,
}

// encodePayload builds a typical front-decoded payload.
func encodePayload(s string, v uint64) []byte {
	var e Encoder
	e.PutString(s)
	e.PutUint64(v)
	return e.Bytes()
}

// TestTraceRoundTrip: new -> new. The envelope survives a write/read
// cycle, ExtractTrace restores the exact payload and context, and the
// correlation tag comes back without the reserved bit.
func TestTraceRoundTrip(t *testing.T) {
	payload := encodePayload("checkpoint/alpha", 42)
	var buf bytes.Buffer
	in := &Packet{Type: 7, Tag: 12345, Payload: payload, Trace: sampleContext}
	if err := WritePacket(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tag&traceTagBit == 0 {
		t.Fatal("trace tag bit not set on the wire")
	}
	if !out.ExtractTrace() {
		t.Fatal("ExtractTrace found no envelope")
	}
	if out.Trace != sampleContext {
		t.Fatalf("context mangled: got %+v want %+v", out.Trace, sampleContext)
	}
	if out.Tag != 12345 {
		t.Fatalf("tag not restored: got %d", out.Tag)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatalf("payload not restored: got %x want %x", out.Payload, payload)
	}
}

// TestTraceNewToOldPeer: new -> old. An old peer reads a traced frame
// with plain ReadPacket and front-decodes the payload; the trailing
// envelope bytes must be invisible to it.
func TestTraceNewToOldPeer(t *testing.T) {
	var buf bytes.Buffer
	in := &Packet{Type: 7, Tag: 99, Payload: encodePayload("report", 1998), Trace: sampleContext}
	if err := WritePacket(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Old peer: ReadPacket only, then sequential field decode.
	p, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(p.Payload)
	s, err := d.String()
	if err != nil {
		t.Fatalf("old peer failed to decode string: %v", err)
	}
	v, err := d.Uint64()
	if err != nil {
		t.Fatalf("old peer failed to decode uint64: %v", err)
	}
	if s != "report" || v != 1998 {
		t.Fatalf("old peer decoded %q/%d", s, v)
	}
	// Old peer echoes the request tag verbatim in its response — tag bit
	// included, but with an untraced payload. The new client must strip
	// the bit without inventing a context.
	echo := &Packet{Type: 8, Tag: p.Tag, Payload: encodePayload("ack", 0)}
	var rbuf bytes.Buffer
	if err := WritePacket(&rbuf, echo); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadPacket(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExtractTrace() {
		t.Fatal("extracted a context from an old peer's untraced echo")
	}
	if resp.Trace.Valid() {
		t.Fatal("echo response carries an invented context")
	}
	if resp.Tag != 99 {
		t.Fatalf("echoed tag bit not stripped: got %#x", resp.Tag)
	}
	wantAck := encodePayload("ack", 0)
	if !bytes.Equal(resp.Payload, wantAck) {
		t.Fatalf("echo payload truncated: got %x want %x", resp.Payload, wantAck)
	}
}

// TestTraceOldToNewPeer: old -> new. An old peer's frame (no tag bit, no
// trailer) passes ExtractTrace untouched.
func TestTraceOldToNewPeer(t *testing.T) {
	payload := encodePayload("get_state", 3)
	var buf bytes.Buffer
	if err := WritePacket(&buf, &Packet{Type: 21, Tag: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.ExtractTrace() {
		t.Fatal("extracted a context from an untraced frame")
	}
	if p.Tag != 7 || !bytes.Equal(p.Payload, payload) {
		t.Fatalf("untraced frame perturbed: tag=%d payload=%x", p.Tag, p.Payload)
	}
}

// TestTraceExtractRejectsLookalikes: a payload that happens to end in
// envelope-shaped bytes is only treated as one when the tag bit vouches
// for it, and unknown flag bits disqualify a trailer even then.
func TestTraceExtractRejectsLookalikes(t *testing.T) {
	lookalike := appendTraceTrailer(encodePayload("x", 1), sampleContext)

	// No tag bit: the trailer-shaped suffix is payload, not an envelope.
	p := &Packet{Tag: 5, Payload: append([]byte(nil), lookalike...)}
	if p.ExtractTrace() {
		t.Fatal("extracted without the tag bit")
	}
	if !bytes.Equal(p.Payload, lookalike) {
		t.Fatal("payload perturbed without the tag bit")
	}

	// Tag bit plus unknown flag bits: a future envelope version this
	// build must not misparse. Bit stripped, payload intact, no context.
	future := append([]byte(nil), lookalike...)
	future[len(future)-5] = 0x83 // flags byte: unknown bits set
	p = &Packet{Tag: 5 | traceTagBit, Payload: future}
	if p.ExtractTrace() {
		t.Fatal("extracted an envelope with unknown flag bits")
	}
	if p.Tag != 5 {
		t.Fatalf("tag bit not stripped: %#x", p.Tag)
	}
	if !bytes.Equal(p.Payload, future) {
		t.Fatal("payload perturbed on rejected trailer")
	}

	// Tag bit on a too-short payload: old-peer echo of a tiny response.
	p = &Packet{Tag: 5 | traceTagBit, Payload: []byte{1, 2, 3}}
	if p.ExtractTrace() {
		t.Fatal("extracted from a payload shorter than a trailer")
	}
	if p.Tag != 5 || !bytes.Equal(p.Payload, []byte{1, 2, 3}) {
		t.Fatal("short payload perturbed")
	}
}

// TestTraceZeroContextNotSent: a zero (invalid) context adds no trailer
// and no tag bit — untraced calls are bit-for-bit the pre-tracing
// protocol.
func TestTraceZeroContextNotSent(t *testing.T) {
	payload := encodePayload("fetch", 11)
	var traced, plain bytes.Buffer
	if err := WritePacket(&traced, &Packet{Type: 9, Tag: 3, Payload: payload, Trace: TraceContext{}}); err != nil {
		t.Fatal(err)
	}
	if err := WritePacket(&plain, &Packet{Type: 9, Tag: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced.Bytes(), plain.Bytes()) {
		t.Fatal("zero context changed the encoded frame")
	}
}

// TestQuickTraceEnvelopeRoundTrip: property — for arbitrary payloads and
// contexts, write/read/extract restores both exactly; for invalid
// contexts the frame is byte-identical to an untraced one.
func TestQuickTraceEnvelopeRoundTrip(t *testing.T) {
	f := func(payload []byte, traceID, spanID, parentID uint64, sampled bool) bool {
		tc := TraceContext{TraceID: traceID, SpanID: spanID, ParentID: parentID, Sampled: sampled}
		var buf bytes.Buffer
		in := &Packet{Type: 4, Tag: 17, Payload: payload, Trace: tc}
		if err := WritePacket(&buf, in); err != nil {
			return false
		}
		out, err := ReadPacket(&buf)
		if err != nil {
			return false
		}
		got := out.ExtractTrace()
		if tc.Valid() {
			return got && out.Trace == tc && out.Tag == 17 && bytes.Equal(out.Payload, payload)
		}
		return !got && out.Tag == 17 && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzExtractTrace: ExtractTrace on arbitrary tag/payload pairs never
// panics, never grows the payload, and always clears the reserved bit.
func FuzzExtractTrace(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1)|traceTagBit, []byte{1, 2, 3})
	valid := appendTraceTrailer(encodePayload("seed", 9), sampleContext)
	f.Add(uint64(42)|traceTagBit, valid)
	zeroID := appendTraceTrailer(nil, TraceContext{SpanID: 1, Sampled: true})
	f.Add(uint64(7)|traceTagBit, zeroID)
	f.Fuzz(func(t *testing.T, tag uint64, payload []byte) {
		p := &Packet{Tag: tag, Payload: append([]byte(nil), payload...)}
		got := p.ExtractTrace()
		if p.Tag&traceTagBit != 0 {
			t.Fatal("reserved tag bit survived ExtractTrace")
		}
		if len(p.Payload) > len(payload) {
			t.Fatal("payload grew")
		}
		if got {
			if !p.Trace.Valid() {
				t.Fatal("extracted an invalid context")
			}
			if len(payload)-len(p.Payload) != traceTrailerLen {
				t.Fatal("extraction stripped the wrong length")
			}
		} else if !bytes.Equal(p.Payload, payload) {
			t.Fatal("payload perturbed without extraction")
		}
	})
}

// FuzzTraceFrameInterop: for any payload, a traced frame must
// front-decode identically to its untraced twin (the old-peer view), and
// the new-peer view must recover the context. This is the lingua franca
// compatibility promise as a fuzz property.
func FuzzTraceFrameInterop(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add(encodePayload("forecast", 12), uint64(0x4f1c))
	f.Fuzz(func(t *testing.T, payload []byte, traceID uint64) {
		if traceID == 0 {
			traceID = 1
		}
		tc := TraceContext{TraceID: traceID, SpanID: traceID ^ 0xabcd, Sampled: traceID%2 == 0}
		var traced, plain bytes.Buffer
		if err := WritePacket(&traced, &Packet{Type: 3, Tag: 8, Payload: payload, Trace: tc}); err != nil {
			t.Fatal(err)
		}
		if err := WritePacket(&plain, &Packet{Type: 3, Tag: 8, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		oldView, err := ReadPacket(bytes.NewReader(traced.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// Old peer: payload prefix must equal the untraced payload.
		if !bytes.HasPrefix(oldView.Payload, payload) {
			t.Fatal("old-peer payload prefix diverges from the untraced frame")
		}
		// New peer: full extraction.
		newView, err := ReadPacket(bytes.NewReader(traced.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !newView.ExtractTrace() || newView.Trace != tc || !bytes.Equal(newView.Payload, payload) {
			t.Fatal("new-peer extraction failed to recover the untraced frame")
		}
		// Frame sizes differ by exactly the trailer.
		if traced.Len()-plain.Len() != traceTrailerLen {
			t.Fatal("trailer length drifted")
		}
	})
}

// recordingTracer captures every StartSpan parent context, so tests can
// assert what contexts actually reached a peer.
type recordingTracer struct {
	mu      sync.Mutex
	parents []TraceContext
}

func (r *recordingTracer) StartSpan(name string, parent TraceContext) ActiveSpan {
	r.mu.Lock()
	r.parents = append(r.parents, parent)
	r.mu.Unlock()
	return nopSpan{tc: parent}
}

func (r *recordingTracer) sawTrace(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tc := range r.parents {
		if tc.TraceID == id {
			return true
		}
	}
	return false
}

// TestTraceServiceInteropOldClient: end-to-end over a live Service — a
// client with no tracer (the old-peer behaviour: no envelope ever
// written) talks to a tracing server, and a tracing client talks to a
// handler that front-decodes payloads. Both directions must succeed.
func TestTraceServiceInteropOldClient(t *testing.T) {
	rec := &recordingTracer{}
	svc := NewService(ServiceConfig{ListenAddr: "127.0.0.1:0", Tracer: rec})
	svc.Handle(msgEcho, HandlerFunc(func(remote string, req *Packet) (*Packet, error) {
		d := NewDecoder(req.Payload)
		s, err := d.String()
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.PutString(s + "/ack")
		return &Packet{Type: msgEcho, Payload: e.Bytes()}, nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Old client: no tracer, zero Trace on every request.
	oldc := NewClient(2 * time.Second)
	defer oldc.Close()
	var e Encoder
	e.PutString("old")
	resp, err := oldc.Call(addr, &Packet{Type: msgEcho, Payload: e.Bytes()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := NewDecoder(resp.Payload).String(); s != "old/ack" {
		t.Fatalf("old client got %q", s)
	}

	// New client with a sampled root: the server handler (a plain
	// front-decoder) must be oblivious, and the server tracer must see the
	// inbound context as parent.
	newc := NewClient(2 * time.Second)
	newc.Tracer = rec
	defer newc.Close()
	root := TraceContext{TraceID: 0xfeed, SpanID: 0xbeef, Sampled: true}
	var e2 Encoder
	e2.PutString("new")
	resp, err = newc.Call(addr, &Packet{Type: msgEcho, Payload: e2.Bytes(), Trace: root}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := NewDecoder(resp.Payload).String(); s != "new/ack" {
		t.Fatalf("new client got %q", s)
	}
	if !rec.sawTrace(0xfeed) {
		t.Fatal("server tracer never saw the propagated trace ID")
	}
}
