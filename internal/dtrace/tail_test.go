package dtrace

import (
	"testing"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// tailClock is a hand-advanced virtual clock for tail-sampling tests: the
// clock of the registry the tracer under test stamps spans with and
// counts into.
type tailClock struct {
	t   time.Time
	reg *telemetry.Registry
}

func newTailClock() *tailClock {
	c := &tailClock{t: time.Unix(1000, 0), reg: telemetry.NewRegistry()}
	c.reg.SetNow(func() time.Time { return c.t })
	return c
}

func (c *tailClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTailTracer(t *testing.T, tail TailConfig) (*Tracer, *Capture, *tailClock) {
	t.Helper()
	clk := newTailClock()
	cap := &Capture{}
	tr := New(Config{
		Service:     "unit@test",
		SampleEvery: -1, // head sampling never records: everything rides the tail
		Metrics:     clk.reg,
		Sink:        cap,
		Tail:        &tail,
	})
	return tr, cap, clk
}

// TestTailPromotesSlowTrace: a head-unsampled trace is buffered span by
// span, promoted whole the moment one local span crosses the slow
// threshold, and spans finishing after the verdict flow straight through
// — so the local fragment arrives complete, root included.
func TestTailPromotesSlowTrace(t *testing.T) {
	tr, cap, clk := newTailTracer(t, TailConfig{SlowThreshold: 10 * time.Millisecond})

	if !tr.WantUnsampled() {
		t.Fatal("tail tracer must want unsampled spans")
	}
	root := tr.Root("workload")
	if !root.Context().Valid() || root.Context().Sampled {
		t.Fatalf("root context = %+v, want valid unsampled", root.Context())
	}
	fast := tr.StartSpan("fast.hop", root.Context())
	clk.advance(time.Millisecond)
	fast.End("ok")
	if got := tr.TailBuffered(); got != 1 {
		t.Fatalf("buffered = %d, want 1", got)
	}
	if len(cap.Spans()) != 0 {
		t.Fatalf("premature emission: %+v", cap.Spans())
	}

	slow := tr.StartSpan("slow.hop", root.Context())
	clk.advance(20 * time.Millisecond)
	slow.End("ok") // crosses the threshold: promotes the whole trace
	root.End("ok") // after the verdict: emitted directly

	spans := cap.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d (%+v), want 3", len(spans), spans)
	}
	names := map[string]bool{}
	for _, s := range spans {
		if s.TraceID != root.Context().TraceID {
			t.Fatalf("span %q escaped to trace %x", s.Name, s.TraceID)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"workload", "fast.hop", "slow.hop"} {
		if !names[want] {
			t.Fatalf("span %q missing from promoted trace: %v", want, names)
		}
	}
	snap := clk.reg.Snapshot("")
	if snap.Value("dtrace.tail.promoted") != 1 || snap.Value("dtrace.tail.flushed") != 3 {
		t.Fatalf("tail counters: %+v", snap.Samples)
	}
}

// TestTailPromotesErrorTrace: a non-ok outcome promotes regardless of
// duration.
func TestTailPromotesErrorTrace(t *testing.T) {
	tr, cap, _ := newTailTracer(t, TailConfig{SlowThreshold: time.Hour})
	root := tr.Root("failing")
	child := tr.StartSpan("broken.hop", root.Context())
	child.End("timeout")
	root.End("error")
	if got := len(cap.Spans()); got != 2 {
		t.Fatalf("spans = %d, want 2 (error promotion)", got)
	}
}

// TestTailEvictsUnpromoted: uneventful traces age out of the buffer
// without ever reaching the sink.
func TestTailEvictsUnpromoted(t *testing.T) {
	tr, cap, clk := newTailTracer(t, TailConfig{SlowThreshold: time.Minute})
	root := tr.Root("boring")
	child := tr.StartSpan("quick.hop", root.Context())
	child.End("ok")
	root.End("ok")
	if got := tr.TailBuffered(); got != 2 {
		t.Fatalf("buffered = %d, want 2", got)
	}
	clk.advance(tailHoldFor)
	// Held exactly tailHoldFor: a later record's age sweep keeps it.
	tr.Root("held").End("ok")
	if got := tr.TailBuffered(); got != 3 {
		t.Fatalf("buffered = %d, want 3 (nothing aged out at tailHoldFor)", got)
	}
	clk.advance(time.Millisecond)
	// Past tailHoldFor: any later record triggers the age sweep.
	other := tr.Root("later")
	other.End("ok")
	if got := clk.reg.Snapshot("").Value("dtrace.tail.evicted"); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	if len(cap.Spans()) != 0 {
		t.Fatalf("evicted spans leaked to the sink: %+v", cap.Spans())
	}
}

// TestTailOverflowBounded: the buffer never holds more than
// tailMaxSpans; overflow evicts oldest traces whole.
func TestTailOverflowBounded(t *testing.T) {
	tr, _, clk := newTailTracer(t, TailConfig{SlowThreshold: time.Minute})
	const burst = tailMaxSpans + 100
	for i := 0; i < burst; i++ {
		sp := tr.Root("burst")
		sp.End("ok")
	}
	if got := tr.TailBuffered(); got > tailMaxSpans {
		t.Fatalf("buffered = %d, want <= %d", got, tailMaxSpans)
	}
	if got := clk.reg.Snapshot("").Value("dtrace.tail.evicted"); got != burst-tailMaxSpans {
		t.Fatalf("evicted = %d, want %d", got, burst-tailMaxSpans)
	}
}

// TestHeadSampledBypassesTail: spans of head-sampled traces emit
// directly, tail or no tail.
func TestHeadSampledBypassesTail(t *testing.T) {
	cap := &Capture{}
	tr := New(Config{
		Service:     "unit@test",
		SampleEvery: 1,
		Sink:        cap,
		Tail:        &TailConfig{SlowThreshold: time.Minute},
	})
	sp := tr.Root("sampled")
	sp.End("ok")
	if len(cap.Spans()) != 1 {
		t.Fatalf("sampled span not emitted directly: %+v", cap.Spans())
	}
	if tr.TailBuffered() != 0 {
		t.Fatal("sampled span leaked into the tail buffer")
	}
}

// TestWantUnsampledGates: no tail config or no sink means the wire layer
// must not hand over unsampled spans.
func TestWantUnsampledGates(t *testing.T) {
	if New(Config{SampleEvery: -1}).WantUnsampled() {
		t.Fatal("tracer without tail config wants unsampled spans")
	}
	if New(Config{SampleEvery: -1, Tail: &TailConfig{}}).WantUnsampled() {
		t.Fatal("tracer without sink wants unsampled spans")
	}
	var nilTr *Tracer
	if nilTr.WantUnsampled() {
		t.Fatal("nil tracer wants unsampled spans")
	}
	// And the propagate-only path still holds without tail sampling.
	tr := New(Config{SampleEvery: -1, Sink: &Capture{}})
	sp := tr.Root("plain")
	if _, ok := sp.(*span); ok {
		t.Fatal("head-unsampled span recorded without tail sampling")
	}
	var _ wire.ActiveSpan = sp
}
