package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	fg := r.FloatGauge("a.float")
	fg.Set(2.5)
	if got := fg.Value(); got != 2.5 {
		t.Fatalf("float gauge = %g, want 2.5", got)
	}
}

func TestKindCollisionReturnsDiscard(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	// Same name as a different kind must not panic and must not corrupt
	// the original.
	r.Gauge("x").Set(99)
	r.Histogram("x").Observe(time.Second)
	if got := r.Counter("x").Value(); got != 1 {
		t.Fatalf("counter after collision = %d, want 1", got)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.FloatGauge("c").Set(1)
	r.Histogram("d").Observe(time.Second)
	sp := r.SpanFamily("e").Start()
	sp.End(OutcomeOK)
	if snap := r.Snapshot(""); len(snap.Samples) != 0 {
		t.Fatalf("nil registry snapshot has %d samples", len(snap.Samples))
	}
	if r.Now().IsZero() {
		t.Fatal("nil registry clock returned zero time")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := r.Snapshot("")
	sm, ok := snap.Find("lat")
	if !ok || sm.Hist == nil {
		t.Fatal("histogram missing from snapshot")
	}
	p50 := sm.Hist.Quantile(0.5)
	if p50 < 100*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ~100us–1ms", p50)
	}
	p99 := sm.Hist.Quantile(0.99)
	if p99 < 500*time.Millisecond || p99 > 2*time.Second {
		t.Fatalf("p99 = %v, want ~0.5s–2s", p99)
	}
	if mean := sm.Hist.Mean(); mean < 40*time.Millisecond || mean > 70*time.Millisecond {
		t.Fatalf("mean = %v, want ~50ms", mean)
	}
}

func TestBucketForBounds(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		b := BucketBound(i)
		if got := bucketFor(b); got != i {
			t.Fatalf("bucketFor(bound(%d)) = %d", i, got)
		}
		if i < histBuckets-1 {
			if got := bucketFor(b + 1); got != i+1 {
				t.Fatalf("bucketFor(bound(%d)+1) = %d, want %d", i, got, i+1)
			}
		}
	}
	if got := bucketFor(0); got != 0 {
		t.Fatalf("bucketFor(0) = %d", got)
	}
	if got := bucketFor(time.Duration(1 << 62)); got != histBuckets-1 {
		t.Fatalf("huge duration bucket = %d", got)
	}
}

func TestSpanVirtualClock(t *testing.T) {
	r := NewRegistry()
	vt := time.Date(1998, 11, 11, 23, 36, 56, 0, time.UTC)
	r.SetNow(func() time.Time { return vt })
	sp := r.SpanFamily("rpc").Start()
	vt = vt.Add(3 * time.Second) // virtual time advances; no real sleep
	sp.End(OutcomeTimeout)
	snap := r.Snapshot("")
	sm, ok := snap.Find("rpc.timeout")
	if !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatalf("span not recorded: %+v", sm)
	}
	if got := time.Duration(sm.Hist.SumNanos); got != 3*time.Second {
		t.Fatalf("span duration = %v, want 3s (virtual)", got)
	}
	if snap.TakenUnixNanos != vt.UnixNano() {
		t.Fatal("snapshot not stamped with the virtual clock")
	}
	if up := time.Duration(snap.UptimeNanos); up != 3*time.Second {
		t.Fatalf("virtual uptime = %v, want 3s", up)
	}
}

func TestSnapshotPrefixAndSums(t *testing.T) {
	r := NewRegistry()
	r.SetID("test-daemon")
	r.Counter("wire.client.retries").Add(3)
	r.Counter("sched.dispatched.unix").Add(2)
	r.Counter("sched.dispatched.condor").Add(5)
	r.Histogram("wire.server.handle.t50.ok").Observe(time.Millisecond)

	all := r.Snapshot("")
	if all.ID != "test-daemon" {
		t.Fatalf("ID = %q", all.ID)
	}
	if got := all.SumPrefix("sched.dispatched."); got != 7 {
		t.Fatalf("SumPrefix dispatched = %d, want 7", got)
	}
	if got := all.SumPrefix("wire.server.handle."); got != 1 {
		t.Fatalf("SumPrefix handle = %d, want 1", got)
	}
	only := r.Snapshot("sched.")
	if len(only.Samples) != 2 {
		t.Fatalf("prefix snapshot has %d samples, want 2", len(only.Samples))
	}
	for i := 1; i < len(all.Samples); i++ {
		if all.Samples[i-1].Name >= all.Samples[i].Name {
			t.Fatal("snapshot samples not sorted by name")
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				r.Gauge("g").Add(1)
			}
		}()
	}
	// Snapshots race with the writers by design.
	for i := 0; i < 50; i++ {
		_ = r.Snapshot("")
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire.client.retries").Add(2)
	r.FloatGauge("nws.forecast.abs_err").Set(0.25)
	r.Histogram("pstate.store.ok").Observe(2 * time.Millisecond)
	var b strings.Builder
	r.Snapshot("").WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"wire_client_retries 2",
		"nws_forecast_abs_err 0.25",
		"pstate_store_ok_count 1",
		"pstate_store_ok_p95_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable(t *testing.T) {
	r := NewRegistry()
	r.SetID("sched@host")
	r.Counter("sched.reports").Add(12)
	r.Counter("sched.dispatched.unix").Add(4)
	var b strings.Builder
	RenderTable(&b, []NamedSnapshot{
		{Addr: "127.0.0.1:1", Snap: r.Snapshot("")},
		{Addr: "127.0.0.1:2", Err: fmt.Errorf("connection refused")},
	})
	out := b.String()
	if !strings.Contains(out, "sched@host") || !strings.Contains(out, "reports") {
		t.Fatalf("table missing daemon row or column:\n%s", out)
	}
	if !strings.Contains(out, "unreachable") {
		t.Fatalf("table missing unreachable row:\n%s", out)
	}
	if strings.Contains(out, "members") {
		t.Fatalf("table shows an all-empty column:\n%s", out)
	}
}

func TestHTTPServer(t *testing.T) {
	r := NewRegistry()
	r.SetID("httpd")
	r.Counter("wire.client.retries").Add(9)
	var healthy error
	h, err := ServeHTTP(r, "127.0.0.1:0", func() error { return healthy })
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + h.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(bufio.NewReader(resp.Body))
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "wire_client_retries 9") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok id=httpd") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	healthy = fmt.Errorf("pool lost")
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "pool lost") {
		t.Fatalf("unhealthy /healthz = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestSumCounter(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("wire.client.retries").Add(2)
	b.Counter("wire.client.retries").Add(3)
	got := SumCounter(map[string]Snapshot{
		"a": a.Snapshot(""), "b": b.Snapshot(""), "c": {},
	}, "wire.client.retries")
	if got != 5 {
		t.Fatalf("SumCounter = %d, want 5", got)
	}
}
