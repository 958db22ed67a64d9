package ramsey

import (
	"testing"

	"everyware/internal/gossip"
)

// lookupBest fetches the registered gossip comparator for the best
// counter-example key.
func lookupBest(t *testing.T) (gossip.Comparator, bool) {
	t.Helper()
	return gossip.LookupComparator(BestComparator)
}

// stamped wraps payload bytes for comparator tests.
func stamped(data []byte) gossip.Stamped {
	return gossip.Stamped{Key: "ramsey/best", Data: data}
}

func TestDecodeCounterExampleRejectsGarbage(t *testing.T) {
	if _, err := DecodeCounterExample(nil); err == nil {
		t.Fatal("nil must fail")
	}
	if _, err := DecodeCounterExample([]byte{0, 0}); err == nil {
		t.Fatal("short must fail")
	}
}

func TestBestComparatorEqualSizes(t *testing.T) {
	cmp, ok := lookupBest(t)
	if !ok {
		t.Fatal("comparator missing")
	}
	p5, _ := Paley(5)
	a := stamped((&CounterExample{K: 3, Coloring: p5}).Encode())
	b := stamped((&CounterExample{K: 3, Coloring: p5.Clone()}).Encode())
	if cmp(a, b) != 0 {
		t.Fatal("equal-size counter-examples must tie")
	}
}

func TestEliteEncodeDecodeAndComparator(t *testing.T) {
	p17, _ := Paley(17)
	e := &Elite{Conflicts: 3, K: 4, Coloring: p17}
	got, err := DecodeElite(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Conflicts != 3 || got.K != 4 || !got.Coloring.Equal(p17) {
		t.Fatalf("round trip: %+v", got)
	}
	cmp, ok := gossip.LookupComparator(EliteComparator)
	if !ok {
		t.Fatal("elite comparator missing")
	}
	better := gossip.Stamped{Data: (&Elite{Conflicts: 1, K: 4, Coloring: p17}).Encode()}
	worse := gossip.Stamped{Data: (&Elite{Conflicts: 9, K: 4, Coloring: p17}).Encode()}
	if cmp(better, worse) <= 0 {
		t.Fatal("fewer conflicts must be fresher")
	}
	garbage := gossip.Stamped{Data: []byte{1}}
	if cmp(worse, garbage) <= 0 {
		t.Fatal("decodable elite must beat garbage")
	}
	if _, err := DecodeElite(nil); err == nil {
		t.Fatal("nil must fail")
	}
}
