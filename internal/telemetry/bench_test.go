package telemetry

import (
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench.lookup")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench.lookup").Inc()
	}
}

func BenchmarkSpan(b *testing.B) {
	f := NewRegistry().SpanFamily("bench.span")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Start().End(OutcomeOK)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter("bench.c." + string(rune('a'+i%26)) + string(rune('a'+i/26))).Inc()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot("")
	}
}
