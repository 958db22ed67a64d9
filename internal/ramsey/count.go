package ramsey

import "sync/atomic"

// OpCounter tallies the integer test and arithmetic operations the search
// performs. The paper instrumented every client this way — one counter
// increment per integer operation, excluding the instrumentation itself
// and the EveryWare interface code — so all reported rates are
// conservative estimates of useful work delivered to the application.
// OpCounter is safe for concurrent use.
type OpCounter struct {
	n atomic.Int64
}

// Add records n integer operations.
func (o *OpCounter) Add(n int64) {
	if o != nil {
		o.n.Add(n)
	}
}

// Total returns the operations recorded so far.
func (o *OpCounter) Total() int64 {
	if o == nil {
		return 0
	}
	return o.n.Load()
}

// Reset zeroes the counter and returns the previous total.
func (o *OpCounter) Reset() int64 {
	if o == nil {
		return 0
	}
	return o.n.Swap(0)
}

// CountMonoCliques returns the number of monochromatic k-cliques in c,
// summed over both colors. ops, if non-nil, accumulates the integer
// operation count of the traversal.
func CountMonoCliques(c *Coloring, k int, ops *OpCounter) int {
	if k < 2 {
		return 0
	}
	return newCliqueArena(c.n, k).count(c, k, ops)
}

// cliqueArena holds the scratch vertex sets of the clique counters, so
// that counting allocates nothing. Level d is the candidate set of a
// recursion with d vertices still to place: the full count's candidates
// after its first vertex are level k-1, the edge count's after its two
// endpoints are level k-2, and a recursion at level d writes its
// narrowed set into level d-1. A live level is never written by a deeper
// call, so one arena serves every count of up to its k vertices on any
// coloring whose rows have its word count. An arena is not safe for
// concurrent use.
type cliqueArena struct {
	words  []uint64
	stride int // words per level
}

// newCliqueArena sizes an arena for k-cliques on n vertices.
func newCliqueArena(n, k int) *cliqueArena {
	stride := wordsFor(n)
	return &cliqueArena{words: make([]uint64, k*stride), stride: stride}
}

// level returns level d.
func (a *cliqueArena) level(d int) bitset {
	off := d * a.stride
	return a.words[off : off+a.stride]
}

// count returns the number of monochromatic k-cliques in c.
func (a *cliqueArena) count(c *Coloring, k int, ops *OpCounter) int {
	total := 0
	for col := Red; col <= Blue; col++ {
		total += a.countColor(c, k, col, ops)
	}
	return total
}

// countColor counts k-cliques within one color class.
func (a *cliqueArena) countColor(c *Coloring, k int, col Color, ops *OpCounter) int {
	n := c.n
	cand := a.level(k - 1)
	count := 0
	work := int64(0)
	for v := 0; v < n; v++ {
		// Only extend with vertices > v to count each clique once: the
		// row has no bit for v itself or beyond n, so clearing every word
		// below v's and the bits up to v in its word leaves those above.
		cand.copyFrom(c.adj[col][v])
		clear(cand[:v>>6])
		cand[v>>6] &^= 2<<(uint(v)&63) - 1
		work += int64(len(cand))
		count += a.extend(c, col, cand, k-1, v+1, &work)
	}
	ops.Add(work)
	return count
}

// extend counts (depth)-cliques among cand, all mutually adjacent in
// color col, considering only vertices >= from. cand is level depth.
func (a *cliqueArena) extend(c *Coloring, col Color, cand bitset, depth, from int, work *int64) int {
	if depth == 0 {
		return 1
	}
	if cand.count() < depth {
		*work += int64(len(cand))
		return 0
	}
	count := 0
	sub := a.level(depth - 1)
	for v := cand.firstFrom(from); v >= 0; v = cand.firstFrom(v + 1) {
		sub.intersect(cand, c.adj[col][v])
		*work += int64(len(sub)) + 2
		count += a.extend(c, col, sub, depth-1, v+1, work)
	}
	return count
}

// CountMonoCliquesThroughEdge counts monochromatic k-cliques that contain
// edge (i, j) in the edge's current color. This is the incremental kernel
// of the local-search heuristics: flipping edge (i, j) destroys exactly
// these cliques and creates the cliques counted for the opposite color.
func CountMonoCliquesThroughEdge(c *Coloring, i, j, k int, ops *OpCounter) int {
	if k < 2 {
		return 0
	}
	if k == 2 {
		return 1
	}
	return newCliqueArena(c.n, k).throughEdge(c, i, j, k, c.Color(i, j), ops)
}

// throughEdge counts k-cliques (k >= 3) of the given color containing
// edge (i, j) — whether or not (i, j) currently has that color, the count
// assumes it does, which lets the heuristics evaluate hypothetical flips.
func (a *cliqueArena) throughEdge(c *Coloring, i, j, k int, col Color, ops *OpCounter) int {
	cand := a.level(k - 2)
	cand.intersect(c.adj[col][i], c.adj[col][j])
	cand.clear(i)
	cand.clear(j)
	work := int64(len(cand) + 2)
	n := a.extend(c, col, cand, k-2, 0, &work)
	ops.Add(work)
	return n
}

// flipDelta returns the net change in monochromatic k-clique count if
// edge (i, j) were flipped: cliques gained in the new color minus cliques
// lost in the current color.
func (a *cliqueArena) flipDelta(c *Coloring, i, j, k int, ops *OpCounter) int {
	cur := c.Color(i, j)
	lost := a.throughEdge(c, i, j, k, cur, ops)
	gained := a.throughEdge(c, i, j, k, cur^1, ops)
	return gained - lost
}

// IsCounterExample reports whether c proves a Ramsey lower bound: it is a
// counter-example for R(k) if it contains no monochromatic k-clique. This
// is the sanity check the persistent state manager runs before storing any
// claimed counter-example (section 3.1.2).
func IsCounterExample(c *Coloring, k int) bool {
	return CountMonoCliques(c, k, nil) == 0
}
