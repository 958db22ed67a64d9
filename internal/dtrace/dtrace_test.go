// Tests live in package dtrace_test so the collector round-trip tests
// can import logsvc (which itself imports dtrace for the message types).
package dtrace_test

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/logsvc"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// testTracer builds a deterministic tracer: sequential IDs and a virtual
// clock the test advances by hand.
func testTracer(service string, sampleEvery int, sink dtrace.Sink) (*dtrace.Tracer, *int64) {
	var now int64
	var id uint64
	return dtrace.New(dtrace.Config{
		Service:     service,
		SampleEvery: sampleEvery,
		Sink:        sink,
		Now:         func() time.Time { return time.Unix(0, now) },
		Rand:        func() uint64 { id++; return id },
	}), &now
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []dtrace.Span{
		{
			TraceID: 0x4f1c, SpanID: 2, ParentID: 1,
			Service: "sched1@127.0.0.1:9001", Name: "sched.decision",
			Start: 123456789, Duration: 42000, Outcome: "ok",
			Annotations: []dtrace.Annotation{{Key: "host", Value: "m1"}, {Key: "found", Value: "true"}},
		},
		{TraceID: 0x4f1c, SpanID: 3, ParentID: 2, Name: "wire.attempt", Outcome: "timeout"},
		{TraceID: 7, SpanID: 9, Outcome: ""},
	}
	out, err := dtrace.DecodeSpans(dtrace.EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.TraceID != b.TraceID || a.SpanID != b.SpanID || a.ParentID != b.ParentID ||
			a.Service != b.Service || a.Name != b.Name || a.Start != b.Start ||
			a.Duration != b.Duration || a.Outcome != b.Outcome || len(a.Annotations) != len(b.Annotations) {
			t.Fatalf("span %d mangled: %+v != %+v", i, a, b)
		}
	}
	if v, ok := out[0].Get("found"); !ok || v != "true" {
		t.Fatalf("annotation lost: %v %v", v, ok)
	}
	if _, ok := out[1].Get("host"); ok {
		t.Fatal("phantom annotation")
	}
	if empty, err := dtrace.DecodeSpans(dtrace.EncodeSpans(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch round trip: %v %v", empty, err)
	}
}

// Property: DecodeSpans on arbitrary bytes errors or succeeds — never
// panics, never fabricates a huge allocation.
func TestQuickDecodeSpansNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		spans, err := dtrace.DecodeSpans(raw)
		return err != nil || spans != nil || len(raw) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSpansTruncated(t *testing.T) {
	enc := dtrace.EncodeSpans([]dtrace.Span{{TraceID: 1, SpanID: 2, Name: "x", Outcome: "ok"}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := dtrace.DecodeSpans(enc[:cut]); err == nil {
			t.Fatalf("no error decoding %d of %d bytes", cut, len(enc))
		}
	}
}

func TestTracerSampling(t *testing.T) {
	cap := &dtrace.Capture{}
	tr, _ := testTracer("s", 5, cap)
	sampled := 0
	for i := 0; i < 20; i++ {
		sp := tr.Root("op")
		if sp.Context().Sampled {
			sampled++
		}
		sp.End("ok")
	}
	if sampled != 4 {
		t.Fatalf("1-in-5 sampling picked %d of 20 roots", sampled)
	}
	if got := len(cap.Spans()); got != 4 {
		t.Fatalf("sink saw %d spans want 4", got)
	}

	// Negative SampleEvery: record nothing, but contexts stay valid so
	// propagation is unharmed.
	off, _ := testTracer("s", -1, cap)
	sp := off.Root("op")
	if sp.Context().Sampled {
		t.Fatal("negative SampleEvery sampled a root")
	}
	if !sp.Context().Valid() {
		t.Fatal("unsampled root lost its context")
	}
	sp.End("ok")
	if got := len(cap.Spans()); got != 4 {
		t.Fatalf("unsampled span reached the sink (%d)", got)
	}
}

func TestTracerChildInheritance(t *testing.T) {
	cap := &dtrace.Capture{}
	tr, now := testTracer("svc@addr", 1, cap)
	root := tr.Root("parent")
	*now += 1000
	child := tr.StartSpan("child", root.Context())
	ctc, rtc := child.Context(), root.Context()
	if ctc.TraceID != rtc.TraceID {
		t.Fatal("child left the parent's trace")
	}
	if ctc.ParentID != rtc.SpanID {
		t.Fatal("child not parented on the root span")
	}
	if !ctc.Sampled {
		t.Fatal("child did not inherit the sampling decision")
	}
	*now += 500
	child.Annotate("k", "v")
	child.End("ok")
	child.End("error") // second End must be a no-op
	*now += 250
	root.End("ok")

	spans := cap.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Name != "child" || r.Name != "parent" {
		t.Fatalf("emit order: %s, %s", c.Name, r.Name)
	}
	if c.Start != 1000 || c.Duration != 500 {
		t.Fatalf("virtual clock not honoured: start=%d dur=%d", c.Start, c.Duration)
	}
	if r.Duration != 1750 {
		t.Fatalf("root duration %d want 1750", r.Duration)
	}
	if c.Outcome != "ok" {
		t.Fatalf("second End overwrote outcome: %s", c.Outcome)
	}
	if v, _ := c.Get("k"); v != "v" {
		t.Fatal("annotation lost")
	}
	if c.Service != "svc@addr" {
		t.Fatalf("service identity %q", c.Service)
	}
}

func TestNilTracerPropagates(t *testing.T) {
	var tr *dtrace.Tracer
	parent := wire.TraceContext{TraceID: 9, SpanID: 4, Sampled: true}
	sp := tr.StartSpan("x", parent)
	if sp.Context() != parent {
		t.Fatal("nil tracer perturbed the context")
	}
	sp.Annotate("a", "b")
	sp.End("ok")
	if tr.Service() != "" {
		t.Fatal("nil tracer has a service")
	}
}

// treeFixture is a two-daemon trace with an orphan and a retry: root
// (ends at 100) -> call (ends at 95) -> two attempts, plus a span whose
// parent was never collected.
func treeFixture() []dtrace.Span {
	return []dtrace.Span{
		{TraceID: 1, SpanID: 10, ParentID: 0, Service: "a", Name: "root", Start: 0, Duration: 100, Outcome: "ok"},
		{TraceID: 1, SpanID: 11, ParentID: 10, Service: "a", Name: "call", Start: 5, Duration: 90, Outcome: "ok"},
		{TraceID: 1, SpanID: 13, ParentID: 11, Service: "a", Name: "attempt", Start: 50, Duration: 40, Outcome: "ok"},
		{TraceID: 1, SpanID: 12, ParentID: 11, Service: "a", Name: "attempt", Start: 6, Duration: 30, Outcome: "timeout"},
		{TraceID: 1, SpanID: 14, ParentID: 13, Service: "b", Name: "serve", Start: 60, Duration: 10, Outcome: "ok"},
		{TraceID: 1, SpanID: 20, ParentID: 99, Service: "c", Name: "stray", Start: 70, Duration: 5, Outcome: "ok"},
		{TraceID: 2, SpanID: 30, ParentID: 0, Service: "a", Name: "other", Start: 200, Duration: 1, Outcome: "ok"},
	}
}

func TestBuildTrees(t *testing.T) {
	trees := dtrace.BuildTrees(treeFixture())
	if len(trees) != 2 {
		t.Fatalf("got %d trees want 2", len(trees))
	}
	tr := trees[0] // earliest start first
	if tr.TraceID != 1 || tr.Spans != 6 {
		t.Fatalf("tree 1: id=%d spans=%d", tr.TraceID, tr.Spans)
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("got %d roots want root + orphan", len(tr.Roots))
	}
	if tr.Roots[0].Name != "root" || tr.Roots[1].Name != "stray" || !tr.Roots[1].Orphan {
		t.Fatalf("roots: %s, %s (orphan=%v)", tr.Roots[0].Name, tr.Roots[1].Name, tr.Roots[1].Orphan)
	}
	call := tr.Find("call")
	if call == nil || len(call.Children) != 2 {
		t.Fatal("call node missing or children lost")
	}
	// Children ordered by start: the timed-out attempt (start 6) first.
	if call.Children[0].Outcome != "timeout" || call.Children[1].Outcome != "ok" {
		t.Fatalf("children unsorted: %s then %s", call.Children[0].Outcome, call.Children[1].Outcome)
	}
	if got := tr.Services(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("services: %v", got)
	}
	if tr.Duration() != 100 {
		t.Fatalf("duration %d want 100", tr.Duration())
	}
}

func TestCriticalPath(t *testing.T) {
	trees := dtrace.BuildTrees(treeFixture())
	crit := trees[0].CriticalPath()
	// The latest-ending chain: root(100) -> call(95) -> attempt 13 (90) ->
	// serve(70). The early timed-out attempt is off-path.
	for _, id := range []uint64{10, 11, 13, 14} {
		if !crit[id] {
			t.Errorf("span %d missing from critical path", id)
		}
	}
	if crit[12] {
		t.Error("timed-out attempt on critical path")
	}
	if crit[20] {
		t.Error("orphan on critical path")
	}
}

func TestRender(t *testing.T) {
	trees := dtrace.BuildTrees(treeFixture())
	out := dtrace.Render(trees[0])
	if !strings.Contains(out, "trace 0000000000000001  3 daemons, 6 spans") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "* root") || !strings.Contains(out, "* serve") {
		t.Fatalf("critical path not marked:\n%s", out)
	}
	if !strings.Contains(out, "stray (orphaned)") {
		t.Fatalf("orphan not labelled:\n%s", out)
	}
	// The off-path attempt renders unmarked (indent then two spaces).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "timeout") && strings.Contains(line, "* ") {
			t.Fatalf("off-path span marked critical: %q", line)
		}
	}
}

// TestExporterCollectorRoundTrip ships spans through a real Exporter to a
// real logsvc collector over the in-memory transport and reads them back
// with Fetch — the full export path ew-trace depends on.
func TestExporterCollectorRoundTrip(t *testing.T) {
	tp := wire.NewMemTransport()
	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0", Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ls.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	wc := wire.NewClient(time.Second)
	wc.Transport = tp
	defer wc.Close()

	reg := telemetry.NewRegistry()
	ex := dtrace.NewExporter(dtrace.ExporterConfig{
		Client: wc, Addr: addr, Metrics: reg,
	})
	want := treeFixture()
	for _, s := range want {
		ex.Emit(s)
	}
	ex.Close() // drains and flushes the final partial batch

	got, err := dtrace.Fetch(wc, addr, 0, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("collector holds %d spans want %d", len(got), len(want))
	}
	// Filtered fetch: only trace 2.
	only, err := dtrace.Fetch(wc, addr, 0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].TraceID != 2 {
		t.Fatalf("trace filter returned %v", only)
	}
	// Bounded fetch.
	capped, err := dtrace.Fetch(wc, addr, 2, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 {
		t.Fatalf("max=2 fetch returned %d spans", len(capped))
	}
	snap := reg.Snapshot("")
	if snap.Value("dtrace.export.spans") != int64(len(want)) {
		t.Fatalf("export counter %d want %d", snap.Value("dtrace.export.spans"), len(want))
	}
	if snap.Value("dtrace.export.dropped") != 0 {
		t.Fatal("spurious drops")
	}
}

// TestExporterBestEffort: an unreachable collector and a full queue both
// drop (and count) rather than block or error the caller.
func TestExporterBestEffort(t *testing.T) {
	tp := wire.NewMemTransport()
	wc := wire.NewClient(50 * time.Millisecond)
	wc.Transport = tp
	defer wc.Close()

	reg := telemetry.NewRegistry()
	ex := dtrace.NewExporter(dtrace.ExporterConfig{
		Client: wc, Addr: "mem:nowhere", Buffer: 2, Timeout: 50 * time.Millisecond, Metrics: reg,
	})
	for i := 0; i < 16; i++ {
		ex.Emit(dtrace.Span{TraceID: 1, SpanID: uint64(i + 1), Name: "x", Outcome: "ok"})
	}
	ex.Close()
	snap := reg.Snapshot("")
	if snap.Value("dtrace.export.spans") != 0 {
		t.Fatal("claimed exports to an unreachable collector")
	}
	if snap.Value("dtrace.export.dropped") != 16 {
		t.Fatalf("dropped %d of 16", snap.Value("dtrace.export.dropped"))
	}
	if snap.Value("dtrace.export.errors") == 0 {
		t.Fatal("no export errors counted")
	}
}

// TestExporterCloseIsCleanAndConserves: with emitters racing a raced
// Close, every emitted span is either exported or counted dropped —
// never both, never neither; after Close nothing is sent or dialed, and
// no goroutine is left.
func TestExporterCloseIsCleanAndConserves(t *testing.T) {
	base := runtime.NumGoroutine()
	tp := wire.NewMemTransport()
	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0", Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ls.Start()
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(time.Second)
	var dials atomic.Int64
	wc.Dialer = func(addr string, timeout time.Duration) (*wire.Conn, error) {
		dials.Add(1)
		return wire.DialOn(tp, addr, timeout)
	}
	reg := telemetry.NewRegistry()
	ex := dtrace.NewExporter(dtrace.ExporterConfig{Client: wc, Addr: addr, Metrics: reg})

	const emitters, each = 4, 500
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ex.Emit(dtrace.Span{TraceID: uint64(e + 1), SpanID: uint64(i + 1), Name: "x", Outcome: "ok"})
				if e < 2 && i == each/2 {
					ex.Close() // mid-stream, racing the other emitters and each other
				}
			}
		}(e)
	}
	wg.Wait()

	dialed := dials.Load()
	ex.Emit(dtrace.Span{TraceID: 9, SpanID: 1, Name: "late", Outcome: "ok"})
	snap := reg.Snapshot("")
	exported, dropped := snap.Value("dtrace.export.spans"), snap.Value("dtrace.export.dropped")
	if exported+dropped != emitters*each+1 || exported == 0 || dropped == 0 {
		t.Fatalf("exported %d + dropped %d, want %d in total and some of each", exported, dropped, emitters*each+1)
	}
	probe := wire.NewClient(time.Second)
	probe.Transport = tp
	got, err := dtrace.Fetch(probe, addr, 0, 0, time.Second)
	probe.Close()
	if err != nil || int64(len(got)) != exported {
		t.Fatalf("collector holds %d spans (err %v), exporter counted %d", len(got), err, exported)
	}
	wc.Close()
	ls.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
	if got := dials.Load(); got != dialed {
		t.Fatalf("closed exporter dialed %d more times", got-dialed)
	}
}

func TestSpanString(t *testing.T) {
	for _, tc := range []struct {
		sp   dtrace.Span
		want string
	}{
		{dtrace.Span{TraceID: 0xa, SpanID: 0xb, ParentID: 0xc, Service: "sched@h:1", Name: "sched.decision", Outcome: "ok"},
			"000000000000000a/000000000000000b<-000000000000000c sched@h:1 sched.decision ok"},
		{dtrace.Span{}, "0000000000000000/0000000000000000<-0000000000000000   "},
	} {
		if got := tc.sp.String(); got != tc.want {
			t.Errorf("Span.String() = %q, want %q", got, tc.want)
		}
	}
}
