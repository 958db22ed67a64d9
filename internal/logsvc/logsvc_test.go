package logsvc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/wire"
)

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestEntryRoundTrip(t *testing.T) {
	en := Entry{Unix: 12345, Source: "client-1", Level: "perf", Line: "ops=42"}
	got, err := DecodeEntry(EncodeEntry(en))
	if err != nil || got != en {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(unix int64, source, level, line string) bool {
		en := Entry{Unix: unix, Source: source, Level: level, Line: line}
		got, err := DecodeEntry(EncodeEntry(en))
		return err == nil && got == en
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogAndTailOverWire(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	c := NewClient(wc, s.Addr(), "client-7", time.Second)
	for i := 0; i < 5; i++ {
		if err := c.Log("info", "message %d", i); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tail(3)
	if len(got) != 3 {
		t.Fatalf("tail = %d entries", len(got))
	}
	if got[0].Line != "message 2" || got[2].Line != "message 4" {
		t.Fatalf("tail order wrong: %+v", got)
	}
	if got[0].Source != "client-7" {
		t.Fatalf("source = %q", got[0].Source)
	}
}

func TestRingBufferWraps(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		s.Append(Entry{Unix: int64(i), Line: "x"})
	}
	got := s.Tail(100)
	if len(got) != 4 {
		t.Fatalf("ring should hold 4, got %d", len(got))
	}
	if got[0].Unix != 6 || got[3].Unix != 9 {
		t.Fatalf("ring contents wrong: %+v", got)
	}
	appended, _ := s.Stats()
	if appended != 10 {
		t.Fatalf("appended = %d", appended)
	}
}

func TestTailFewerThanRequested(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	s.Append(Entry{Unix: 1, Line: "only"})
	got := s.Tail(10)
	if len(got) != 1 || got[0].Line != "only" {
		t.Fatalf("got %+v", got)
	}
	if len(s.Tail(0)) != 0 {
		t.Fatal("tail(0) must be empty")
	}
}

func TestFileAppendAndQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.log")
	s := newTestServer(t, ServerConfig{File: path, MaxFileBytes: 80})
	for i := 0; i < 20; i++ {
		s.Append(Entry{Unix: int64(i), Source: "s", Level: "perf", Line: "0123456789"})
	}
	_, dropped := s.Stats()
	if dropped == 0 {
		t.Fatal("quota should have dropped some file lines")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) > 80 {
		t.Fatalf("file size %d exceeds quota", len(raw))
	}
	if !strings.Contains(string(raw), "0123456789") {
		t.Fatal("file missing logged content")
	}
	// Ring buffer still holds everything despite the file quota.
	if len(s.Tail(100)) != 20 {
		t.Fatal("ring must retain entries dropped from the file")
	}
}

func TestFilePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.log")
	s1 := newTestServer(t, ServerConfig{File: path})
	s1.Append(Entry{Unix: 1, Source: "a", Level: "info", Line: "first"})
	s1.Close()
	s2 := newTestServer(t, ServerConfig{File: path})
	s2.Append(Entry{Unix: 2, Source: "a", Level: "info", Line: "second"})
	s2.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "first") || !strings.Contains(string(raw), "second") {
		t.Fatalf("log file lost data: %q", raw)
	}
}

// TestRingEvictionCounted: a full entry ring evicts oldest-first and the
// loss is counted — in StatsDetail and in the "logsvc.dropped" counter
// that ew top surfaces.
func TestRingEvictionCounted(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		s.Append(Entry{Unix: int64(i), Line: "x"})
	}
	d := s.StatsDetail()
	if d.Appended != 10 {
		t.Fatalf("appended = %d", d.Appended)
	}
	if d.RingDropped != 6 {
		t.Fatalf("ring dropped %d want 6", d.RingDropped)
	}
	if got := s.reg.Snapshot("").Value("logsvc.dropped"); got != 6 {
		t.Fatalf("logsvc.dropped counter = %d want 6", got)
	}
}

// TestSpanRingBounded: the trace collector's span ring wraps like the
// entry ring — newest spans retained, evictions counted in
// "logsvc.trace.dropped" — and Spans filters by trace and bounds by max
// (most recent winning).
func TestSpanRingBounded(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxSpans: 4})
	spans := make([]dtrace.Span, 10)
	for i := range spans {
		spans[i] = dtrace.Span{TraceID: uint64(1 + i%2), SpanID: uint64(i + 1), Start: int64(i), Name: "op", Outcome: "ok"}
	}
	s.CollectSpans(spans)
	got := s.Spans(0, 0)
	if len(got) != 4 {
		t.Fatalf("span ring holds %d want 4", len(got))
	}
	if got[0].SpanID != 7 || got[3].SpanID != 10 {
		t.Fatalf("ring kept wrong spans: first=%d last=%d", got[0].SpanID, got[3].SpanID)
	}
	d := s.StatsDetail()
	if d.Spans != 10 || d.SpanDropped != 6 {
		t.Fatalf("span accounting: spans=%d dropped=%d", d.Spans, d.SpanDropped)
	}
	snap := s.reg.Snapshot("")
	if snap.Value("logsvc.trace.dropped") != 6 {
		t.Fatalf("logsvc.trace.dropped = %d want 6", snap.Value("logsvc.trace.dropped"))
	}
	if snap.Value("logsvc.trace.spans") != 10 {
		t.Fatalf("logsvc.trace.spans = %d want 10", snap.Value("logsvc.trace.spans"))
	}
	// Trace filter: only trace 2's surviving spans.
	for _, sp := range s.Spans(0, 2) {
		if sp.TraceID != 2 {
			t.Fatalf("filter leaked trace %d", sp.TraceID)
		}
	}
	// Bounded fetch keeps the most recent.
	last := s.Spans(2, 0)
	if len(last) != 2 || last[1].SpanID != 10 {
		t.Fatalf("max=2 fetch: %+v", last)
	}
}

// TestCollectorOverWire: the collector handlers — MsgTraceExport appends,
// MsgTraceFetch reads back with max and trace-ID filters applied.
func TestCollectorOverWire(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	in := []dtrace.Span{
		{TraceID: 5, SpanID: 1, Name: "root", Outcome: "ok"},
		{TraceID: 5, SpanID: 2, ParentID: 1, Name: "child", Outcome: "ok"},
		{TraceID: 6, SpanID: 3, Name: "other", Outcome: "error"},
	}
	if _, err := wc.Call(s.Addr(), &wire.Packet{Type: dtrace.MsgTraceExport, Payload: dtrace.EncodeSpans(in)}, time.Second); err != nil {
		t.Fatal(err)
	}
	all, err := dtrace.Fetch(wc, s.Addr(), 0, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("fetched %d spans want 3", len(all))
	}
	one, err := dtrace.Fetch(wc, s.Addr(), 0, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[0].TraceID != 5 {
		t.Fatalf("trace filter: %+v", one)
	}
}
