package ramsey

import (
	"math/rand"
	"testing"
)

func BenchmarkCountMonoCliques17K4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := RandomColoring(17, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountMonoCliques(c, 4, nil)
	}
}

func BenchmarkCountMonoCliques43K5(b *testing.B) {
	// The R(5) production problem size (43 vertices).
	rng := rand.New(rand.NewSource(1))
	c := RandomColoring(43, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountMonoCliques(c, 5, nil)
	}
}

func BenchmarkFlipDelta17K4(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := RandomColoring(17, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FlipDelta(c, i%16, 16, 4, nil)
	}
}

// BenchmarkHeuristicStep compares the per-step cost of the three
// heuristics — the ablation behind the scheduler's per-algorithm step
// budgets.
func BenchmarkHeuristicStep(b *testing.B) {
	for _, h := range Heuristics() {
		h := h
		b.Run(string(h), func(b *testing.B) {
			s, err := NewSearcher(SearchConfig{N: 17, K: 4, Heuristic: h, Seed: 1, SampleEdges: 16}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(s.Ops().Total())/float64(b.N), "int_ops/step")
		})
	}
}

// BenchmarkSearchToSolutionR3 measures complete time-to-counter-example
// for the easy R(3) problem.
func BenchmarkSearchToSolutionR3(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		found := 0
		for i := 0; i < b.N; i++ {
			s, err := NewSearcher(SearchConfig{N: 5, K: 3, Seed: int64(i)}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if s.Run(50000) {
				found++
			}
		}
		b.ReportMetric(float64(found)/float64(b.N), "success_rate")
	})
}

func BenchmarkPaleyConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Paley(17); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColoringEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := RandomColoring(43, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := c.Encode()
		if _, err := DecodeColoring(enc); err != nil {
			b.Fatal(err)
		}
	}
}
