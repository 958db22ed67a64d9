package ramsey

import (
	"fmt"
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
	a := newCliqueArena(17, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.flipDelta(c, i%16, 16, 4, nil)
	}
}

// BenchmarkHeuristicStep compares the per-step cost of the three
// heuristics — the ablation behind the scheduler's per-algorithm step
// budgets — at the small (17, 4) and the production (42, 5) problem, with
// greedy steps sampling 16 edges. A search that finds a counter-example
// (annealing solves (17, 4) within thousands of steps) restarts from where
// it stood after warm-up, so every timed call is a real step.
func BenchmarkHeuristicStep(b *testing.B) {
	for _, p := range []struct{ n, k int }{{17, 4}, {42, 5}} {
		for _, h := range Heuristics() {
			b.Run(fmt.Sprintf("%s/N=%d,K=%d", h, p.n, p.k), func(b *testing.B) {
				s, err := NewSearcher(SearchConfig{N: p.n, K: p.k, Heuristic: h, Seed: 1, SampleEdges: 16}, nil)
				if err != nil {
					b.Fatal(err)
				}
				s.Run(20)
				start := s.Current()
				s.Ops().Reset()
				restarts := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.Step() {
						restarts++
						if err := s.Restore(start); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(s.Ops().Total())/float64(b.N), "int_ops/step")
				b.ReportMetric(float64(restarts)/float64(b.N), "restarts/step")
			})
		}
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
