// Package ramsey implements the EveryWare example application: a search
// for classical Ramsey number counter-examples (section 3 of the paper).
//
// The nth symmetric Ramsey number R(n) is the smallest k such that every
// two-colored complete graph on k vertices contains a monochromatic
// complete subgraph on n vertices. A "counter-example" for R(n) on j-1
// vertices — a two-coloring with no monochromatic K_n — proves j is a
// lower bound for R(n). The space is far too large for exhaustive search
// (2^903 colorings for R(5) at 43 vertices), so the application uses
// heuristic search with careful dynamic scheduling, which is what made it
// an attractive first test of EveryWare.
package ramsey

import "math/bits"

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// bitset is a fixed-capacity bit vector used for vertex sets and adjacency
// rows.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, wordsFor(n)) }

func (b bitset) set(i int)         { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)       { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool    { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) copyFrom(o bitset) { copy(b, o) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// intersect sets b = x AND y (all three must have equal length).
func (b bitset) intersect(x, y bitset) {
	for i := range b {
		b[i] = x[i] & y[i]
	}
}

// firstFrom returns the smallest set bit index >= start, or -1.
func (b bitset) firstFrom(start int) int {
	if start >= len(b)<<6 {
		return -1
	}
	wi := start >> 6
	w := b[wi] >> (uint(start) & 63) << (uint(start) & 63)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(b) {
			return -1
		}
		w = b[wi]
	}
}
