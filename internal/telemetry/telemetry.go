// Package telemetry is the EveryWare observability layer: a lock-cheap
// metrics registry (counters, gauges, histograms with atomic hot paths),
// lightweight RPC span recording with outcome classification, and
// snapshotting for the wire-protocol introspection service and the HTTP
// /metrics endpoint.
//
// The paper's adaptive machinery — retry ladders, circuit breakers,
// forecast-driven back-off, clique re-elections — runs continuously in a
// deployed EveryWare application; this package makes that machinery
// observable while it runs. Metric updates are single atomic operations,
// so instrumentation is safe on the hottest paths (one wire call records a
// handful of atomics). The registry clock is injectable, so the same
// instrumentation code reports virtual-time metrics when driven by the
// internal/simgrid discrete-event engine.
//
// Metric names are flat dotted strings ("wire.client.retries",
// "clique.token.circulation.ok"). A nil *Registry is valid everywhere and
// discards all updates, so instrumented code needs no nil checks.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous integer value (pool sizes, live member
// counts, queue depths).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic instantaneous float value (forecast error,
// rates).
type FloatGauge struct{ v atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram bucket layout: exponential, base bucket 10us doubling per
// bucket. Bucket i counts observations in (bound(i-1), bound(i)] with
// bound(i) = 10us << i; the last bucket absorbs everything larger
// (~1342s and up).
const (
	histBuckets = 28
	histBase    = 10 * time.Microsecond
)

// BucketBound returns the inclusive upper duration bound of bucket i.
func BucketBound(i int) time.Duration {
	if i >= histBuckets-1 {
		return time.Duration(math.MaxInt64)
	}
	return histBase << uint(i)
}

// Histogram records a distribution of durations in exponential buckets.
// Observations are three atomic adds; no locks, no allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
	// ex holds per-bucket exemplars — the trace ID and duration of a
	// recent traced observation landing in each bucket — allocated on the
	// first traced observation so untraced histograms stay small.
	ex atomic.Pointer[[histBuckets]exemplarSlot]
}

// exemplarSlot is one bucket's exemplar. The two fields are written with
// independent atomics: a torn pair (trace from one observation, duration
// from another in the same bucket) is acceptable for a diagnostic jump-off
// point, and atomics keep concurrent observation race-free.
type exemplarSlot struct {
	trace atomic.Uint64
	nanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveTraced(d, 0)
}

// ObserveTraced records one duration and, when traceID is non-zero,
// retains it as the exemplar for the bucket the observation lands in —
// the link that lets a p99 spike in ew-obs jump straight to the trace
// that caused it. A zero traceID is exactly Observe.
func (h *Histogram) ObserveTraced(d time.Duration, traceID uint64) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	b := bucketFor(d)
	h.buckets[b].Add(1)
	if traceID == 0 {
		return
	}
	ex := h.ex.Load()
	if ex == nil {
		fresh := new([histBuckets]exemplarSlot)
		if h.ex.CompareAndSwap(nil, fresh) {
			ex = fresh
		} else {
			ex = h.ex.Load()
		}
	}
	ex[b].trace.Store(traceID)
	ex[b].nanos.Store(int64(d))
}

// bucketFor maps a duration to its bucket index in constant time.
func bucketFor(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	// Smallest i with histBase<<i >= d.
	i := bits.Len64(uint64((d - 1) / histBase))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// metric is the registry's uniform value holder; exactly one field is
// non-nil.
type metric struct {
	counter    *Counter
	gauge      *Gauge
	floatGauge *FloatGauge
	histogram  *Histogram
}

// Registry holds a process's metrics by name. Lookup takes a read lock;
// the returned metric is updated with atomics only, so callers should hold
// on to hot metrics rather than re-looking them up per event — though even
// the lookup path is cheap enough for per-RPC use.
type Registry struct {
	now   atomic.Pointer[func() time.Time]
	start atomic.Int64 // UnixNano of construction (per the injected clock)

	mu      sync.RWMutex
	id      string
	metrics map[string]*metric
}

// NewRegistry returns an empty registry on the real clock.
func NewRegistry() *Registry {
	r := &Registry{metrics: make(map[string]*metric)}
	fn := time.Now
	r.now.Store(&fn)
	r.start.Store(time.Now().UnixNano())
	return r
}

// SetNow injects the registry clock — virtual time under internal/simgrid,
// a frozen clock in tests. The start-of-life timestamp is rebased so
// uptime is measured on the injected clock.
func (r *Registry) SetNow(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.now.Store(&now)
	r.start.Store(now().UnixNano())
}

// Now returns the registry's current time (real time on a nil registry).
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	return (*r.now.Load())()
}

// Uptime returns how long the registry has existed, per its clock.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.Now().UnixNano() - r.start.Load())
}

// SetID labels the registry with the owning daemon's identity; the label
// travels with snapshots so pollers like ew-top can title their rows.
func (r *Registry) SetID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.id = id
	r.mu.Unlock()
}

// ID returns the registry label.
func (r *Registry) ID() string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.id
}

// Discard sinks for nil registries: instrumented code updates them
// unconditionally and the values are never read.
var (
	discardCounter    Counter
	discardGauge      Gauge
	discardFloatGauge FloatGauge
	discardHistogram  Histogram
)

// lookup returns the named metric, creating it with mk on first use.
func (r *Registry) lookup(name string, mk func() *metric) *metric {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.metrics[name]; ok {
		return m
	}
	m = mk()
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	m := r.lookup(name, func() *metric { return &metric{counter: &Counter{}} })
	if m.counter == nil {
		return &discardCounter // name already taken by another kind
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	m := r.lookup(name, func() *metric { return &metric{gauge: &Gauge{}} })
	if m.gauge == nil {
		return &discardGauge
	}
	return m.gauge
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return &discardFloatGauge
	}
	m := r.lookup(name, func() *metric { return &metric{floatGauge: &FloatGauge{}} })
	if m.floatGauge == nil {
		return &discardFloatGauge
	}
	return m.floatGauge
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &discardHistogram
	}
	m := r.lookup(name, func() *metric { return &metric{histogram: &Histogram{}} })
	if m.histogram == nil {
		return &discardHistogram
	}
	return m.histogram
}

// Outcome classifies how an RPC (or any spanned operation) ended. The
// classes mirror the wire layer's failure taxonomy: a retry ladder
// distinguishes requests that never left (send errors), requests that
// vanished (timeouts), connections that died (resets), and calls that only
// succeeded on an alternate server (fail-over).
type Outcome string

// Span outcome classes.
const (
	OutcomeOK         Outcome = "ok"
	OutcomeTimeout    Outcome = "timeout"
	OutcomeReset      Outcome = "reset"
	OutcomeRetried    Outcome = "retried"
	OutcomeFailedOver Outcome = "failed_over"
	OutcomeError      Outcome = "error"
)

// SpanFamily times operations under one span name, recording each into
// the histogram "<name>.<outcome>". The family caches that histogram per
// outcome (copy-on-write, lock-free reads), so recording a span is just
// two clock reads and an Observe.
type SpanFamily struct {
	r     *Registry
	name  string
	mu    sync.Mutex
	hists atomic.Pointer[map[Outcome]*Histogram]
}

// SpanFamily returns a family for the given span name. On a nil registry
// the family records nothing. Callers cache the family, not look it up
// per event.
func (r *Registry) SpanFamily(name string) *SpanFamily {
	f := &SpanFamily{r: r, name: name}
	m := make(map[Outcome]*Histogram)
	f.hists.Store(&m)
	return f
}

// Start begins timing an operation against the family's histograms. The
// zero Span (and any span from a nil-registry family) is a no-op.
func (f *SpanFamily) Start() Span {
	if f == nil || f.r == nil {
		return Span{}
	}
	return Span{f: f, start: f.r.Now()}
}

// Span is one in-flight timed operation from a SpanFamily. End records
// the elapsed time (per the registry clock) and allocates nothing once
// the family has seen the outcome.
type Span struct {
	f     *SpanFamily
	start time.Time
}

// End finishes the span under the given outcome.
func (s Span) End(o Outcome) {
	s.EndTraced(o, 0)
}

// EndTraced finishes the span under the given outcome, retaining a
// non-zero traceID as the exemplar for the histogram bucket the
// observation lands in. The wire server and client use this so hot-path
// histograms carry trace jump-off points.
func (s Span) EndTraced(o Outcome, traceID uint64) {
	if s.f == nil {
		return
	}
	s.f.hist(o).ObserveTraced(s.f.r.Now().Sub(s.start), traceID)
}

func (f *SpanFamily) hist(o Outcome) *Histogram {
	if h, ok := (*f.hists.Load())[o]; ok {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.hists.Load()
	if h, ok := old[o]; ok {
		return h
	}
	h := f.r.Histogram(f.name + "." + string(o))
	next := make(map[Outcome]*Histogram, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[o] = h
	f.hists.Store(&next)
	return h
}

// Snapshot captures every metric's current value. The prefix filters by
// metric name ("" keeps everything). Values are read without a global
// pause, so a snapshot taken under concurrent updates is consistent per
// metric, not across metrics — the right trade for monitoring.
func (r *Registry) Snapshot(prefix string) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := r.Now()
	s := Snapshot{
		TakenUnixNanos: now.UnixNano(),
		UptimeNanos:    now.UnixNano() - r.start.Load(),
	}
	r.mu.RLock()
	s.ID = r.id
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		if prefix == "" || hasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	ms := make([]*metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.RUnlock()

	s.Samples = make([]Sample, 0, len(names))
	for i, name := range names {
		m := ms[i]
		sample := Sample{Name: name}
		switch {
		case m.counter != nil:
			sample.Kind = KindCounter
			sample.Value = m.counter.Value()
		case m.gauge != nil:
			sample.Kind = KindGauge
			sample.Value = m.gauge.Value()
		case m.floatGauge != nil:
			sample.Kind = KindFloatGauge
			sample.Float = m.floatGauge.Value()
		case m.histogram != nil:
			sample.Kind = KindHistogram
			h := &HistogramData{
				Count:    m.histogram.count.Load(),
				SumNanos: m.histogram.sum.Load(),
				Buckets:  make([]int64, histBuckets),
			}
			for b := range m.histogram.buckets {
				h.Buckets[b] = m.histogram.buckets[b].Load()
			}
			if ex := m.histogram.ex.Load(); ex != nil {
				for b := range ex {
					if t := ex[b].trace.Load(); t != 0 {
						h.Exemplars = append(h.Exemplars, Exemplar{
							Bucket:  b,
							TraceID: t,
							Nanos:   ex[b].nanos.Load(),
						})
					}
				}
			}
			sample.Hist = h
		}
		s.Samples = append(s.Samples, sample)
	}
	return s
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
