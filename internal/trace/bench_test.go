package trace

import (
	"testing"
	"time"
)

func BenchmarkSeriesAdd(b *testing.B) {
	s := NewSeries(t0, 5*time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(t0.Add(time.Duration(i%8640)*time.Second), 1000)
	}
}

func BenchmarkCoefficientOfVariation(b *testing.B) {
	vs := make([]float64, 144) // 12h of 5-minute buckets
	for i := range vs {
		vs[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoefficientOfVariation(vs)
	}
}
