package wire_test

import (
	"strconv"
	"testing"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// msgOpEcho is the echo message of the Op tests' service.
const msgOpEcho wire.MsgType = 243

func init() { wire.Define(msgOpEcho, "test.op_echo", false) }

// TestOpAllocGate is the allocation gate for the one instrument every
// spanned operation uses: start, Annotate, Context and End make no
// allocation without a tracer, on a trace the tracer does not sample, or
// with a family timing the operation. `make bench-wire` runs it beside
// the round-trip gate.
func TestOpAllocGate(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	unsampled := dtrace.New(dtrace.Config{Service: "gate", SampleEvery: -1, Sink: &dtrace.Capture{}})
	sampledParent := wire.TraceContext{TraceID: 7, SpanID: 8, Sampled: true}
	for _, tc := range []struct {
		name   string
		fam    *telemetry.SpanFamily
		tr     wire.Tracer
		parent wire.TraceContext
	}{
		{"nil tracer", nil, nil, wire.TraceContext{}},
		{"unsampled dtrace tracer", nil, unsampled, wire.TraceContext{}},
		{"family", telemetry.NewRegistry().SpanFamily("gate.op"), nil, sampledParent},
	} {
		op := func() {
			o := wire.StartOp(tc.fam, tc.tr, "gate.op", tc.parent)
			o.Annotate("k", "v")
			if o.Context().Valid() != (tc.tr != nil || tc.parent.Valid()) {
				t.Fatalf("%s: context %+v", tc.name, o.Context())
			}
			o.End(telemetry.OutcomeOK)
		}
		op() // the family's first End creates its histogram and exemplars
		if avg := testing.AllocsPerRun(1000, op); avg != 0 {
			t.Fatalf("Op (%s) allocates %.2f per operation; the gate is 0", tc.name, avg)
		}
	}
}

// TestExemplarsNameSampledTraces: a histogram exemplar is a jump-off
// point to a trace, so it must name one the collector can hold. With
// client and server tracing at 1 in 4, every exemplar on the server's
// handle histogram and on the client's call histogram is the ID of a
// trace whose spans reached a sink.
func TestExemplarsNameSampledTraces(t *testing.T) {
	tp := wire.NewMemTransport()
	recorded := &dtrace.Capture{}
	newTracer := func(service string) *dtrace.Tracer {
		return dtrace.New(dtrace.Config{Service: service, SampleEvery: 4, Sink: recorded})
	}
	srvReg := telemetry.NewRegistry()
	svc := wire.NewService(wire.ServiceConfig{
		ListenAddr: "127.0.0.1:0", Transport: tp, Silent: true,
		Metrics: srvReg, Tracer: newTracer("server"),
	})
	svc.Handle(msgOpEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		return wire.Reply(msgOpEcho, wire.RawMessage(req.Payload)), nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	clientReg := telemetry.NewRegistry()
	clientTr := newTracer("client")
	c := wire.NewClient(time.Second)
	c.Transport = tp
	c.Metrics = clientReg
	c.Tracer = clientTr
	defer c.Close()
	// 42 roots: the last is unsampled, so the last observation in its
	// bucket would carry an unrecorded trace if exemplars ignored the
	// sampling decision.
	for i := 0; i < 42; i++ {
		root := wire.StartOp(nil, clientTr, "test.op", wire.TraceContext{})
		req := wire.NewRawRequest(msgOpEcho, []byte("ping"))
		req.Trace = root.Context()
		resp, err := c.Call(addr, req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		root.End(telemetry.OutcomeOK)
	}

	sampled := map[uint64]bool{}
	for _, s := range recorded.Spans() {
		sampled[s.TraceID] = true
	}
	if len(sampled) != 11 {
		t.Fatalf("recorded %d traces, want 11 of 42 at 1 in 4", len(sampled))
	}
	for _, h := range []struct {
		reg  *telemetry.Registry
		name string
	}{
		{srvReg, "wire.server.handle.t" + strconv.Itoa(int(msgOpEcho)) + ".ok"},
		{clientReg, "wire.client.call.ok"},
	} {
		sm, ok := h.reg.Snapshot(h.name).Find(h.name)
		if !ok || sm.Hist == nil || sm.Hist.Count != 42 {
			t.Fatalf("%s: histogram %+v missing or short", h.name, sm)
		}
		if len(sm.Hist.Exemplars) == 0 {
			t.Fatalf("%s carries no exemplar", h.name)
		}
		for _, ex := range sm.Hist.Exemplars {
			if !sampled[ex.TraceID] {
				t.Errorf("%s: exemplar trace %x was never recorded", h.name, ex.TraceID)
			}
		}
	}
}
