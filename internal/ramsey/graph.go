package ramsey

import (
	"fmt"
	"math/rand"

	"everyware/internal/wire"
)

// Color is an edge color in a two-colored complete graph.
type Color uint8

// The two edge colors.
const (
	Red  Color = 0
	Blue Color = 1
)

// Coloring is a two-coloring of the complete graph on N vertices. Edge
// colors are stored both as a packed triangular bitset (for compact
// transfer as Gossip/persistent state) and as per-color adjacency bitsets
// (for fast monochromatic clique counting).
type Coloring struct {
	n    int
	bits bitset      // triangular edge bits: 1 = Blue
	adj  [2][]bitset // adj[c][v] = vertices u with Color(u,v) == c
}

// NewColoring returns the all-Red coloring on n vertices (n >= 2).
func NewColoring(n int) *Coloring {
	if n < 2 {
		panic(fmt.Sprintf("ramsey: coloring needs >= 2 vertices, got %d", n))
	}
	c := &Coloring{n: n, bits: newBitset(n * (n - 1) / 2)}
	for col := 0; col < 2; col++ {
		c.adj[col] = make([]bitset, n)
		for v := 0; v < n; v++ {
			c.adj[col][v] = newBitset(n)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.adj[Red][i].set(j)
			c.adj[Red][j].set(i)
		}
	}
	return c
}

// RandomColoring returns a uniformly random two-coloring on n vertices.
func RandomColoring(n int, rng *rand.Rand) *Coloring {
	c := NewColoring(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 1 {
				c.Set(i, j, Blue)
			}
		}
	}
	return c
}

// N returns the number of vertices.
func (c *Coloring) N() int { return c.n }

// Edges returns the number of edges, n(n-1)/2.
func (c *Coloring) Edges() int { return c.n * (c.n - 1) / 2 }

// edgeIndex maps vertex pair (i<j) to its triangular bit index.
func (c *Coloring) edgeIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*c.n - i*(i+1)/2 + (j - i - 1)
}

// EdgeAt is the inverse of edgeIndex: it returns the (i, j) pair for a
// triangular bit index.
func (c *Coloring) EdgeAt(idx int) (int, int) {
	i := 0
	row := c.n - 1
	for idx >= row {
		idx -= row
		row--
		i++
	}
	return i, i + 1 + idx
}

// Color returns the color of edge (i, j). i and j must differ.
func (c *Coloring) Color(i, j int) Color {
	if c.bits.has(c.edgeIndex(i, j)) {
		return Blue
	}
	return Red
}

// Set colors edge (i, j).
func (c *Coloring) Set(i, j int, col Color) {
	if i == j {
		panic("ramsey: self edge")
	}
	idx := c.edgeIndex(i, j)
	old := Red
	if c.bits.has(idx) {
		old = Blue
	}
	if old == col {
		return
	}
	if col == Blue {
		c.bits.set(idx)
	} else {
		c.bits.clear(idx)
	}
	c.adj[old][i].clear(j)
	c.adj[old][j].clear(i)
	c.adj[col][i].set(j)
	c.adj[col][j].set(i)
}

// Flip toggles the color of edge (i, j) and returns the new color.
func (c *Coloring) Flip(i, j int) Color {
	nc := Red
	if c.Color(i, j) == Red {
		nc = Blue
	}
	c.Set(i, j, nc)
	return nc
}

// Neighbors returns the adjacency bitset of v in color col. The returned
// set is live; callers must not mutate it.
func (c *Coloring) Neighbors(v int, col Color) bitset { return c.adj[col][v] }

// Clone returns a deep copy.
func (c *Coloring) Clone() *Coloring {
	out := NewColoring(c.n)
	out.copyFrom(c)
	return out
}

// copyFrom overwrites c with o's colors. Both must have the same N.
func (c *Coloring) copyFrom(o *Coloring) {
	c.bits.copyFrom(o.bits)
	for col := 0; col < 2; col++ {
		for v := 0; v < c.n; v++ {
			c.adj[col][v].copyFrom(o.adj[col][v])
		}
	}
}

// Equal reports structural equality.
func (c *Coloring) Equal(o *Coloring) bool {
	if c.n != o.n {
		return false
	}
	for i := range c.bits {
		if c.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Encode serializes the coloring with the lingua franca codec.
func (c *Coloring) Encode() []byte {
	var e wire.Encoder
	e.PutUint32(uint32(c.n))
	e.PutUint32(uint32(len(c.bits)))
	for _, w := range c.bits {
		e.PutUint64(w)
	}
	return e.Bytes()
}

// DecodeColoring parses a coloring serialized by Encode.
func DecodeColoring(p []byte) (*Coloring, error) {
	d := wire.NewDecoder(p)
	n32, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n32 < 2 || n32 > 4096 {
		return nil, fmt.Errorf("ramsey: implausible vertex count %d", n32)
	}
	n := int(n32)
	nw, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(nw) != wordsFor(n*(n-1)/2) {
		return nil, fmt.Errorf("ramsey: word count %d does not match n=%d", nw, n)
	}
	c := NewColoring(n)
	for i := 0; i < int(nw); i++ {
		w, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		// Install word bit-by-bit through Set so adjacency stays coherent.
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) == 0 {
				continue
			}
			idx := i<<6 + b
			if idx >= n*(n-1)/2 {
				return nil, fmt.Errorf("ramsey: stray bit beyond edge range")
			}
			vi, vj := c.EdgeAt(idx)
			c.Set(vi, vj, Blue)
		}
	}
	return c, nil
}

// Paley returns the Paley coloring on q vertices for a prime q ≡ 1 mod 4:
// edge (i, j) is Red iff i-j is a quadratic residue mod q. Paley colorings
// are the classical construction for good Ramsey lower bounds: Paley(5)
// has no monochromatic triangle and Paley(17) no monochromatic K4.
func Paley(q int) (*Coloring, error) {
	if q < 5 || !isPrime(q) || q%4 != 1 {
		return nil, fmt.Errorf("ramsey: Paley requires a prime ≡ 1 mod 4, got %d", q)
	}
	residue := make([]bool, q)
	for x := 1; x < q; x++ {
		residue[x*x%q] = true
	}
	c := NewColoring(q)
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			if !residue[(j-i)%q] {
				c.Set(i, j, Blue)
			}
		}
	}
	return c, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}
