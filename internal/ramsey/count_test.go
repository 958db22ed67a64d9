package ramsey

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// binomial computes n choose k.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestCountMonochromaticAllRed(t *testing.T) {
	// The all-Red K_n contains C(n,k) red k-cliques and no blue ones.
	for _, tc := range []struct{ n, k int }{{5, 3}, {6, 3}, {7, 4}, {9, 4}} {
		c := NewColoring(tc.n)
		want := binomial(tc.n, tc.k)
		if got := CountMonoCliques(c, tc.k, nil); got != want {
			t.Fatalf("n=%d k=%d: got %d want %d", tc.n, tc.k, got, want)
		}
	}
}

// bruteCount counts monochromatic k-cliques by enumerating all vertex
// subsets — the oracle for the optimized counter.
func bruteCount(c *Coloring, k int) int {
	n := c.N()
	idx := make([]int, k)
	var rec func(pos, from int) int
	rec = func(pos, from int) int {
		if pos == k {
			for col := Red; col <= Blue; col++ {
				mono := true
				for a := 0; a < k && mono; a++ {
					for b := a + 1; b < k; b++ {
						if c.Color(idx[a], idx[b]) != col {
							mono = false
							break
						}
					}
				}
				if mono {
					return 1
				}
			}
			return 0
		}
		total := 0
		for v := from; v < n; v++ {
			idx[pos] = v
			total += rec(pos+1, v+1)
		}
		return total
	}
	return rec(0, 0)
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(6) // 5..10
		k := 3 + rng.Intn(2) // 3..4
		c := RandomColoring(n, rng)
		want := bruteCount(c, k)
		got := CountMonoCliques(c, k, nil)
		if got != want {
			t.Fatalf("n=%d k=%d trial=%d: got %d want %d", n, k, trial, got, want)
		}
	}
}

// TestCountMatchesBruteForceMultiWord covers colorings whose adjacency
// rows span more than one 64-bit word. The operation counts are pinned
// too: the vertices below the current one only prune, so dropping them
// from the candidate set wrongly would change the work, not the count.
func TestCountMatchesBruteForceMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct {
		n, k int
		ops  int64
	}{{70, 4, 177588}, {130, 3, 490584}} {
		c := RandomColoring(tc.n, rng)
		var o OpCounter
		if got, want := CountMonoCliques(c, tc.k, &o), bruteCount(c, tc.k); got != want || o.Total() != tc.ops {
			t.Fatalf("n=%d k=%d: got %d cliques in %d ops, want %d in %d", tc.n, tc.k, got, o.Total(), want, tc.ops)
		}
	}
}

func TestCountThroughEdgeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(4)
		k := 3
		c := RandomColoring(n, rng)
		i, j := 0, 1+rng.Intn(n-1)
		got := CountMonoCliquesThroughEdge(c, i, j, k, nil)
		// Brute: count mono k-cliques of color(i,j) containing both i and j.
		col := c.Color(i, j)
		want := 0
		for v := 0; v < n; v++ {
			if v == i || v == j {
				continue
			}
			if c.Color(v, i) == col && c.Color(v, j) == col {
				want++
			}
		}
		if got != want {
			t.Fatalf("trial %d: through-edge count %d, want %d", trial, got, want)
		}
	}
}

func TestFlipDeltaConsistentWithRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(5)
		k := 3 + rng.Intn(2)
		c := RandomColoring(n, rng)
		before := CountMonoCliques(c, k, nil)
		i, j := rng.Intn(n), rng.Intn(n)
		for i == j {
			j = rng.Intn(n)
		}
		delta := newCliqueArena(n, k).flipDelta(c, i, j, k, nil)
		c.Flip(i, j)
		after := CountMonoCliques(c, k, nil)
		if after-before != delta {
			t.Fatalf("trial %d: delta %d, recount says %d", trial, delta, after-before)
		}
	}
}

func TestQuickFlipDeltaAntisymmetric(t *testing.T) {
	// Flipping an edge and flipping it back must cancel.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		k := 3
		c := RandomColoring(n, rng)
		a := newCliqueArena(n, k)
		i, j := 0, 1+rng.Intn(n-1)
		d1 := a.flipDelta(c, i, j, k, nil)
		c.Flip(i, j)
		d2 := a.flipDelta(c, i, j, k, nil)
		c.Flip(i, j)
		return d1 == -d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteThroughEdge counts the k-cliques of color col that contain edge
// (i, j), taking (i, j) itself to have that color, by enumerating every
// set of k-2 other vertices — the oracle for the arena's edge count.
func bruteThroughEdge(c *Coloring, i, j, k int, col Color) int {
	n := c.N()
	idx := make([]int, 0, k)
	var rec func(from int) int
	rec = func(from int) int {
		if len(idx) == k-2 {
			return 1
		}
		total := 0
		for v := from; v < n; v++ {
			if v == i || v == j || c.Color(v, i) != col || c.Color(v, j) != col {
				continue
			}
			mono := true
			for _, u := range idx {
				if c.Color(u, v) != col {
					mono = false
					break
				}
			}
			if mono {
				idx = append(idx, v)
				total += rec(v + 1)
				idx = idx[:len(idx)-1]
			}
		}
		return total
	}
	return rec(0)
}

// TestCliqueArenaAliasing runs one arena over many colorings of up to 20
// vertices and every k from 3 to 6, on every edge, so a level that a
// deeper call overwrote while a shallower one still read it, or one left
// dirty by the previous size, shows up as a wrong count.
func TestCliqueArenaAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := newCliqueArena(20, 6)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(19) // 2..20
		k := 3 + rng.Intn(4)  // 3..6
		c := RandomColoring(n, rng)
		before := CountMonoCliques(c, k, nil)
		if got := a.count(c, k, nil); got != before {
			t.Fatalf("n=%d k=%d: arena count %d, CountMonoCliques %d", n, k, got, before)
		}
		if n <= 12 {
			if want := bruteCount(c, k); before != want {
				t.Fatalf("n=%d k=%d: count %d, brute force %d", n, k, before, want)
			}
		}
		for idx := 0; idx < c.Edges(); idx++ {
			i, j := c.EdgeAt(idx)
			for col := Red; col <= Blue; col++ {
				if got, want := a.throughEdge(c, i, j, k, col, nil), bruteThroughEdge(c, i, j, k, col); got != want {
					t.Fatalf("n=%d k=%d edge (%d,%d) color %d: through-edge %d, brute force %d", n, k, i, j, col, got, want)
				}
			}
			delta := a.flipDelta(c, i, j, k, nil)
			c.Flip(i, j)
			after := CountMonoCliques(c, k, nil)
			c.Flip(i, j)
			if after-before != delta {
				t.Fatalf("n=%d k=%d edge (%d,%d): delta %d, recount says %d", n, k, i, j, delta, after-before)
			}
		}
	}
}

func TestIsCounterExample(t *testing.T) {
	p5, _ := Paley(5)
	if !IsCounterExample(p5, 3) {
		t.Fatal("Paley(5) must be a counter-example for R(3)")
	}
	if IsCounterExample(NewColoring(6), 3) {
		t.Fatal("all-red K6 cannot be a counter-example for R(3) (R(3)=6)")
	}
	// R(3)=6: no 2-coloring of K6 avoids a mono triangle. Spot-check
	// random colorings.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		if IsCounterExample(RandomColoring(6, rng), 3) {
			t.Fatal("found an impossible K6 counter-example for R(3)")
		}
	}
}

func TestOpCounter(t *testing.T) {
	var o OpCounter
	o.Add(5)
	o.Add(7)
	if o.Total() != 12 {
		t.Fatalf("total = %d", o.Total())
	}
	if prev := o.Reset(); prev != 12 || o.Total() != 0 {
		t.Fatalf("reset = %d, total after = %d", prev, o.Total())
	}
	var nilCounter *OpCounter
	nilCounter.Add(3) // must not panic
	if nilCounter.Total() != 0 || nilCounter.Reset() != 0 {
		t.Fatal("nil counter must read zero")
	}
}

func TestCountRecordsOps(t *testing.T) {
	var o OpCounter
	c := NewColoring(10)
	CountMonoCliques(c, 4, &o)
	if o.Total() <= 0 {
		t.Fatal("counting must record work")
	}
}
