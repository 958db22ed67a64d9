package dtrace

import (
	"sync"
	"time"

	"everyware/internal/telemetry"
)

// Tail-based sampling complements head-based sampling: the head decision
// (1-in-N at the root) keeps steady-state overhead flat but, by
// construction, misses most of the traces you actually want — the slow
// ones and the failures. With a TailConfig installed, a tracer records
// spans even for head-unsampled traces, parks them in a bounded
// in-memory buffer, and promotes everything it has buffered for a trace
// the moment one of that trace's local spans ends slow or in error.
// Promotion is remembered briefly, so spans that finish after the
// verdict (the root usually ends last) flow straight to the sink and the
// local portion of the trace arrives complete.
//
// The verdict is local to each daemon. A slow RPC is observed on both
// sides of the wire — the caller's attempt span and, when the handler
// itself is slow, the callee's serve span — so each affected daemon
// independently promotes its own fragment and the collector assembles
// the full path. Unpromoted spans age out after tailHoldFor; the buffer
// never grows past tailMaxSpans.

// TailConfig parameterizes tail-based sampling on a Tracer.
type TailConfig struct {
	// SlowThreshold promotes a trace when any local span's duration
	// reaches it. Zero disables slowness promotion (errors still
	// promote).
	SlowThreshold time.Duration
}

// tailHoldFor bounds how long unpromoted spans stay buffered and how long
// a promotion verdict is remembered.
const tailHoldFor = 5 * time.Second

// tailMaxSpans caps buffered spans across all traces. Overflow evicts the
// oldest buffered trace whole.
const tailMaxSpans = 4096

// tailBuffer is the per-tracer buffer of head-unsampled spans.
type tailBuffer struct {
	cfg TailConfig

	mu       sync.Mutex
	traces   map[uint64]*tailTrace
	order    []uint64             // trace IDs, oldest-first, for aging and overflow eviction
	total    int                  // buffered spans across all traces
	promoted map[uint64]time.Time // trace ID -> verdict expiry
	sweep    int                  // promotion-map sweep cadence counter

	buffered  *telemetry.Counter // spans parked in the buffer
	promotedC *telemetry.Counter // traces promoted to the sink
	flushed   *telemetry.Counter // spans emitted through promotion
	evicted   *telemetry.Counter // spans dropped unpromoted
}

type tailTrace struct {
	spans []Span
	first time.Time // when the first span was buffered (tracer clock)
}

// newTailBuffer builds the buffer; its dtrace.tail.* counters land in
// metrics (nil discards).
func newTailBuffer(cfg TailConfig, metrics *telemetry.Registry) *tailBuffer {
	return &tailBuffer{
		cfg:       cfg,
		traces:    make(map[uint64]*tailTrace),
		promoted:  make(map[uint64]time.Time),
		buffered:  metrics.Counter("dtrace.tail.buffered"),
		promotedC: metrics.Counter("dtrace.tail.promoted"),
		flushed:   metrics.Counter("dtrace.tail.flushed"),
		evicted:   metrics.Counter("dtrace.tail.evicted"),
	}
}

// promotes reports whether this finished span's outcome warrants pulling
// its whole trace out of the buffer.
func (b *tailBuffer) promotes(s Span) bool {
	if s.Outcome != "" && s.Outcome != "ok" {
		return true
	}
	return b.cfg.SlowThreshold > 0 && time.Duration(s.Duration) >= b.cfg.SlowThreshold
}

// record accepts one finished head-unsampled span and returns the spans
// (if any) that must reach the sink now. Emission happens in the caller,
// outside the lock, honouring the Sink never-blocks contract.
func (b *tailBuffer) record(s Span, now time.Time) []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gc(now)

	if expiry, ok := b.promoted[s.TraceID]; ok {
		if now.Before(expiry) {
			b.flushed.Inc()
			return []Span{s}
		}
		delete(b.promoted, s.TraceID)
	}

	if b.promotes(s) {
		// Verdict reached: everything buffered for this trace, plus the
		// deciding span, goes out; later spans of the trace flow through
		// directly while the verdict is remembered.
		b.promoted[s.TraceID] = now.Add(tailHoldFor)
		b.promotedC.Inc()
		var out []Span
		if tt, ok := b.traces[s.TraceID]; ok {
			out = tt.spans
			b.total -= len(tt.spans)
			delete(b.traces, s.TraceID)
		}
		out = append(out, s)
		b.flushed.Add(int64(len(out)))
		return out
	}

	tt, ok := b.traces[s.TraceID]
	if !ok {
		tt = &tailTrace{first: now}
		b.traces[s.TraceID] = tt
		b.order = append(b.order, s.TraceID)
	}
	tt.spans = append(tt.spans, s)
	b.total++
	b.buffered.Inc()

	// Overflow: evict oldest traces whole until back under the cap.
	for b.total > tailMaxSpans && len(b.order) > 0 {
		b.evictOldest()
	}
	return nil
}

// gc ages out unpromoted traces and, periodically, expired promotion
// verdicts. Called with the lock held.
func (b *tailBuffer) gc(now time.Time) {
	for len(b.order) > 0 {
		tid := b.order[0]
		tt, ok := b.traces[tid]
		if ok && now.Sub(tt.first) <= tailHoldFor {
			break
		}
		b.evictOldest()
	}
	b.sweep++
	if b.sweep%64 == 0 {
		for tid, expiry := range b.promoted {
			if !now.Before(expiry) {
				delete(b.promoted, tid)
			}
		}
	}
}

// evictOldest drops the front of the age order (skipping IDs whose trace
// was already promoted away). Called with the lock held.
func (b *tailBuffer) evictOldest() {
	tid := b.order[0]
	b.order = b.order[1:]
	if tt, ok := b.traces[tid]; ok {
		b.total -= len(tt.spans)
		b.evicted.Add(int64(len(tt.spans)))
		delete(b.traces, tid)
	}
}

// Buffered reports the spans currently parked (for tests).
func (b *tailBuffer) Buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}
