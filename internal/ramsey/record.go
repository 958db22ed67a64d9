package ramsey

import (
	"fmt"

	"everyware/internal/gossip"
	"everyware/internal/wire"
)

// CounterExample is the application's headline result object: a coloring
// on N vertices with no monochromatic K-clique, proving R(K) > N. It is
// the program state the paper classifies as persistent — it must survive
// the loss of every active process and is check-pointed through the
// persistent state managers, which verify it before storing.
type CounterExample struct {
	// K is the Ramsey index the coloring is a counter-example for.
	K int
	// Coloring is the witness.
	Coloring *Coloring
	// Finder identifies the client that found it (diagnostic).
	Finder string
}

// Bound returns the Ramsey lower bound this counter-example establishes:
// R(K) > N, i.e. R(K) >= N+1.
func (ce *CounterExample) Bound() int { return ce.Coloring.N() + 1 }

// Verify exhaustively re-checks the witness.
func (ce *CounterExample) Verify() error {
	if ce.Coloring == nil {
		return fmt.Errorf("ramsey: counter-example has no coloring")
	}
	if cnt := CountMonoCliques(ce.Coloring, ce.K, nil); cnt != 0 {
		return fmt.Errorf("ramsey: claimed counter-example for R(%d) on %d vertices has %d monochromatic %d-cliques",
			ce.K, ce.Coloring.N(), cnt, ce.K)
	}
	return nil
}

// Encode serializes the counter-example.
func (ce *CounterExample) Encode() []byte {
	var e wire.Encoder
	e.PutUint32(uint32(ce.K))
	e.PutString(ce.Finder)
	e.PutBytes(ce.Coloring.Encode())
	return e.Bytes()
}

// DecodeCounterExample parses an encoded counter-example. It does not
// verify; call Verify separately (the persistent state manager always
// does).
func DecodeCounterExample(p []byte) (*CounterExample, error) {
	d := wire.NewDecoder(p)
	k, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	finder, err := d.String()
	if err != nil {
		return nil, err
	}
	cb, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	col, err := DecodeColoring(cb)
	if err != nil {
		return nil, err
	}
	return &CounterExample{K: int(k), Coloring: col, Finder: finder}, nil
}

// BestComparator is the gossip comparator name for replicated "best
// counter-example so far" state: a counter-example on more vertices is
// fresher (it proves a better lower bound).
const BestComparator = "ramsey/best"

// init registers BestComparator so every process importing the application
// package shares the freshness rule.
func init() {
	err := gossip.RegisterComparator(BestComparator, func(a, b gossip.Stamped) int {
		na := counterExampleN(a.Data)
		nb := counterExampleN(b.Data)
		switch {
		case na > nb:
			return 1
		case na < nb:
			return -1
		}
		return 0
	})
	if err != nil {
		panic(err)
	}
}

// counterExampleN extracts the vertex count from an encoded
// counter-example, returning -1 for malformed or empty data so real state
// always beats it.
func counterExampleN(p []byte) int {
	ce, err := DecodeCounterExample(p)
	if err != nil {
		return -1
	}
	return ce.Coloring.N()
}
