package dtrace_test

import (
	"sync/atomic"
	"testing"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/wire"
)

// discardSink counts emitted spans without retaining them, so the
// sampled benchmark measures recording cost, not slice growth.
type discardSink struct{ n atomic.Int64 }

func (d *discardSink) Emit(dtrace.Span) { d.n.Add(1) }

const msgEcho wire.MsgType = 200

func init() { wire.Define(msgEcho, "test.echo", false) }

// benchEchoService stands up an echo service on the in-memory transport
// (protocol cost only, kernel out of the picture) with the given tracer
// on both the service and its client.
func benchEchoService(b *testing.B, tr *dtrace.Tracer) (string, *wire.Client) {
	b.Helper()
	tp := wire.NewMemTransport()
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: tp, Silent: true, Tracer: tr})
	svc.Handle(msgEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		return &wire.Packet{Type: msgEcho, Payload: req.Payload}, nil
	}))
	addr, err := svc.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	return addr, svc.Client()
}

// benchTracedRoundTrip drives b.N echo calls, each under its own root
// span (the per-request pattern every instrumented daemon uses).
func benchTracedRoundTrip(b *testing.B, tr *dtrace.Tracer) {
	addr, c := benchEchoService(b, tr)
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := wire.StartSpan(tr, "bench.op", wire.TraceContext{})
		_, err := c.Call(addr, &wire.Packet{Type: 200, Payload: payload, Trace: sp.Context()}, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		sp.End("ok")
	}
}

// BenchmarkRoundTripUntraced is the baseline: no tracer anywhere, zero
// trace context, byte-identical frames to the pre-tracing protocol.
// Directly comparable to BenchmarkRoundTripMem in BENCH_wire.json.
func BenchmarkRoundTripUntraced(b *testing.B) {
	benchTracedRoundTrip(b, nil)
}

// BenchmarkRoundTripUnsampled measures what an always-on tracing
// deployment pays per call when head-based sampling rejects the trace:
// context still propagates (trailer bytes on the wire, ID generation at
// the root) but no span records are made. The acceptance bar is <5%
// over the untraced round trip.
func BenchmarkRoundTripUnsampled(b *testing.B) {
	sink := &discardSink{}
	tr := dtrace.New(dtrace.Config{Service: "bench", SampleEvery: -1, Sink: sink})
	benchTracedRoundTrip(b, tr)
	if sink.n.Load() != 0 {
		b.Fatal("unsampled run recorded spans")
	}
}

// BenchmarkRoundTripSampled records every span on both sides (root +
// client call + attempt + server serve per echo): the fully-observed
// cost ceiling.
func BenchmarkRoundTripSampled(b *testing.B) {
	sink := &discardSink{}
	tr := dtrace.New(dtrace.Config{Service: "bench", SampleEvery: 1, Sink: sink})
	benchTracedRoundTrip(b, tr)
	b.StopTimer()
	if sink.n.Load() == 0 {
		b.Fatal("sampled run recorded nothing")
	}
}

// BenchmarkSpanRecord isolates the tracer itself: start, annotate, end,
// emit to a discarding sink. No wire traffic.
func BenchmarkSpanRecord(b *testing.B) {
	sink := &discardSink{}
	tr := dtrace.New(dtrace.Config{Service: "bench", Sink: sink})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("bench.op")
		sp.Annotate("k", "v")
		sp.End("ok")
	}
}

// BenchmarkEncodeSpans measures the export codec on a typical batch.
func BenchmarkEncodeSpans(b *testing.B) {
	batch := make([]dtrace.Span, 64)
	for i := range batch {
		batch[i] = dtrace.Span{
			TraceID: uint64(i + 1), SpanID: uint64(i + 2), ParentID: uint64(i),
			Service: "sched1@127.0.0.1:9001", Name: "wire.call.sched.report",
			Start: int64(i) * 1000, Duration: 42000, Outcome: "ok",
			Annotations: []dtrace.Annotation{{Key: "addr", Value: "127.0.0.1:9001"}},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := dtrace.EncodeSpans(batch); len(got) == 0 {
			b.Fatal("empty encoding")
		}
	}
}
