package ramsey

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestSearchConfigValidation(t *testing.T) {
	if _, err := NewSearcher(SearchConfig{N: 1, K: 3}, nil); err == nil {
		t.Fatal("N=1 must fail")
	}
	if _, err := NewSearcher(SearchConfig{N: 5, K: 2}, nil); err == nil {
		t.Fatal("K=2 must fail")
	}
	if _, err := NewSearcher(SearchConfig{N: 5, K: 3, Heuristic: "bogus"}, nil); err == nil {
		t.Fatal("unknown heuristic must fail")
	}
	s, err := NewSearcher(SearchConfig{N: 5, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Heuristic != HeurMinConflicts {
		t.Fatal("default heuristic must be min_conflicts")
	}
}

// R(3) = 6, so K5 admits a triangle-free 2-coloring (the pentagon).
// Every heuristic should find one quickly.
func TestAllHeuristicsFindR3CounterExample(t *testing.T) {
	for _, h := range Heuristics() {
		h := h
		t.Run(string(h), func(t *testing.T) {
			found := false
			for seed := int64(0); seed < 5 && !found; seed++ {
				s, err := NewSearcher(SearchConfig{N: 5, K: 3, Heuristic: h, Seed: seed}, nil)
				if err != nil {
					t.Fatal(err)
				}
				found = s.Run(20000)
				if found {
					best, cnt := s.Best()
					if cnt != 0 {
						t.Fatalf("found=true but best count=%d", cnt)
					}
					if !IsCounterExample(best, 3) {
						t.Fatal("claimed counter-example fails verification")
					}
				}
			}
			if !found {
				t.Fatalf("heuristic %s found no K5 R(3) counter-example in 5 seeds", h)
			}
		})
	}
}

// Finding a 17-vertex R(4) counter-example is the realistic small-scale
// workload (R(4) = 18). min_conflicts with restarts should get there.
func TestMinConflictsFindsR4CounterExample(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		s, err := NewSearcher(SearchConfig{N: 17, K: 4, Heuristic: HeurTabu, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		found = s.Run(40000)
	}
	if !found {
		t.Skip("no 17-vertex counter-example within budget (stochastic); covered by Paley(17) construction test")
	}
}

func TestSearcherBestNeverWorsens(t *testing.T) {
	s, err := NewSearcher(SearchConfig{N: 8, K: 3, Heuristic: HeurAnneal, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, prev := s.Best()
	for i := 0; i < 500; i++ {
		s.Step()
		_, cur := s.Best()
		if cur > prev {
			t.Fatalf("best worsened: %d -> %d at step %d", prev, cur, i)
		}
		prev = cur
		if cur == 0 {
			break
		}
	}
}

func TestSearcherConflictsTracksTrueCount(t *testing.T) {
	s, err := NewSearcher(SearchConfig{N: 7, K: 3, Heuristic: HeurMinConflicts, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Step()
		want := CountMonoCliques(s.coloring, 3, nil)
		if s.Conflicts() != want {
			t.Fatalf("step %d: incremental count %d != recount %d", i, s.Conflicts(), want)
		}
	}
}

func TestSearcherRestore(t *testing.T) {
	s, err := NewSearcher(SearchConfig{N: 5, K: 3, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pent, _ := Paley(5)
	if err := s.Restore(pent); err != nil {
		t.Fatal(err)
	}
	if !s.Found() || s.Conflicts() != 0 {
		t.Fatal("restore of a counter-example must report found")
	}
	if err := s.Restore(NewColoring(9)); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestSearcherRecordsOpsAndIterations(t *testing.T) {
	var o OpCounter
	s, err := NewSearcher(SearchConfig{N: 8, K: 4, Heuristic: HeurAnneal, Seed: 1}, &o)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	if s.Iterations() == 0 {
		t.Fatal("no iterations recorded")
	}
	if o.Total() <= 0 {
		t.Fatal("no ops recorded")
	}
}

func TestSearcherDeterministicForSeed(t *testing.T) {
	run := func() (*Coloring, int) {
		s, err := NewSearcher(SearchConfig{N: 8, K: 3, Heuristic: HeurTabu, Seed: 77}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(300)
		return s.Current(), s.Conflicts()
	}
	c1, n1 := run()
	c2, n2 := run()
	if n1 != n2 || !c1.Equal(c2) {
		t.Fatal("same seed must give identical trajectories")
	}
}

func TestSearcherSampledEdges(t *testing.T) {
	s, err := NewSearcher(SearchConfig{N: 12, K: 4, Heuristic: HeurMinConflicts, Seed: 5, SampleEdges: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	want := CountMonoCliques(s.coloring, 4, nil)
	if s.Conflicts() != want {
		t.Fatalf("sampled search count drifted: %d != %d", s.Conflicts(), want)
	}
}

func TestCounterExampleVerifyAndEncode(t *testing.T) {
	pent, _ := Paley(5)
	ce := &CounterExample{K: 3, Coloring: pent, Finder: "client-1"}
	if err := ce.Verify(); err != nil {
		t.Fatal(err)
	}
	if ce.Bound() != 6 {
		t.Fatalf("bound = %d, want 6", ce.Bound())
	}
	got, err := DecodeCounterExample(ce.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 3 || got.Finder != "client-1" || !got.Coloring.Equal(pent) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	bad := &CounterExample{K: 3, Coloring: NewColoring(6)}
	if err := bad.Verify(); err == nil {
		t.Fatal("all-red K6 must fail verification for R(3)")
	}
}

func TestBestComparatorPrefersLargerN(t *testing.T) {
	mk := func(n int) []byte {
		c := NewColoring(n)
		return (&CounterExample{K: 3, Coloring: c}).Encode()
	}
	cmp, ok := lookupBest(t)
	if !ok {
		t.Fatal("comparator not registered")
	}
	a := stamped(mk(8))
	b := stamped(mk(5))
	if cmp(a, b) <= 0 {
		t.Fatal("larger counter-example must be fresher")
	}
	if cmp(b, a) >= 0 {
		t.Fatal("smaller counter-example must be staler")
	}
	garbage := stamped([]byte{1, 2, 3})
	if cmp(b, garbage) <= 0 {
		t.Fatal("real state must beat garbage")
	}
}

// The production problem size (section 3): searching for R(5)
// counter-examples on 43 vertices. A handful of steps must run correctly
// at that scale with sampled edge evaluation.
func TestSearcherAtR5ProductionScale(t *testing.T) {
	var ops OpCounter
	s, err := NewSearcher(SearchConfig{N: 43, K: 5, Heuristic: HeurTabu, Seed: 1, SampleEdges: 8}, &ops)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Conflicts()
	if before <= 0 {
		t.Fatal("random K43 must contain monochromatic K5s")
	}
	s.Run(10)
	want := CountMonoCliques(s.Current(), 5, nil)
	if s.Conflicts() != want {
		t.Fatalf("incremental count %d != full recount %d at n=43", s.Conflicts(), want)
	}
	if ops.Total() <= 0 {
		t.Fatal("no ops recorded")
	}
}

// TestSearcherStepAllocGate holds the search step to zero allocations for
// every heuristic, at the small and the production problem, evaluating
// every edge and sampling 16: the clique counters run in the searcher's
// arena and every buffer a step uses is sized in NewSearcher.
func TestSearcherStepAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, h := range Heuristics() {
		for _, p := range []struct{ n, k int }{{17, 4}, {42, 5}} {
			for _, sample := range []int{0, 16} {
				s, err := NewSearcher(SearchConfig{N: p.n, K: p.k, Heuristic: h, Seed: 28, SampleEdges: sample}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if s.Run(20) {
					t.Fatalf("%s N=%d K=%d sample=%d solved during warm-up: the gate would time no step", h, p.n, p.k, sample)
				}
				if allocs := testing.AllocsPerRun(10, func() { s.Step() }); allocs != 0 {
					t.Errorf("%s N=%d K=%d sample=%d: Step makes %.1f allocations, want 0", h, p.n, p.k, sample, allocs)
				}
			}
		}
	}
}

func TestSearcherStateEncodesWorkingColoring(t *testing.T) {
	s, err := NewSearcher(SearchConfig{N: 17, K: 4, Heuristic: HeurTabu, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	if !bytes.Equal(s.State(), s.Current().Encode()) {
		t.Fatal("State differs from the encoded working coloring")
	}
}

// TestSearchTrajectoryGolden pins where each heuristic is after a fixed
// number of steps from a fixed seed, with and without edge sampling: the
// conflict count, the best count, a hash of the working coloring and the
// integer operations counted on the way (the paper's work unit). A
// change to a search constant (tabu tenure, the annealing schedule, the
// min-conflicts noise) or to the order the searcher draws random numbers
// moves these values.
func TestSearchTrajectoryGolden(t *testing.T) {
	cases := []struct {
		h               Heuristic
		n, k, sample    int
		steps           int64
		conflicts, best int
		hash            string
		ops             int64
	}{
		{HeurMinConflicts, 17, 4, 0, 400, 7, 7, "4a2be0a53b734359", 2162718},
		{HeurMinConflicts, 17, 4, 16, 400, 10, 8, "a02db625730e035f", 260101},
		{HeurMinConflicts, 42, 5, 0, 200, 182, 182, "b3ebd8c676aa9027", 42115787},
		{HeurMinConflicts, 42, 5, 16, 200, 379, 367, "15e2dbbda18f366c", 831544},
		{HeurTabu, 17, 4, 0, 400, 10, 6, "1cfb0242886b29ea", 1694884},
		{HeurTabu, 17, 4, 16, 400, 20, 10, "cfaf508bf9018131", 203229},
		{HeurTabu, 42, 5, 0, 200, 185, 181, "1a2189452659f91e", 39045172},
		{HeurTabu, 42, 5, 16, 200, 337, 336, "7e6a478ed0aec7e0", 762770},
		{HeurAnneal, 17, 4, 0, 12000, 32, 5, "94ca9eb8c66fa2e5", 483025},
		{HeurAnneal, 17, 4, 16, 12000, 32, 5, "94ca9eb8c66fa2e5", 483025},
		{HeurAnneal, 42, 5, 0, 12000, 246, 208, "65fd93f29daf9007", 2907842},
		{HeurAnneal, 42, 5, 16, 12000, 246, 208, "65fd93f29daf9007", 2907842},
	}
	for _, c := range cases {
		s, err := NewSearcher(SearchConfig{N: c.n, K: c.k, Heuristic: c.h, Seed: 28, SampleEdges: c.sample}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(c.steps)
		_, best := s.Best()
		sum := sha256.Sum256(s.Current().Encode())
		got := hex.EncodeToString(sum[:8])
		if ops := s.Ops().Total(); s.Conflicts() != c.conflicts || best != c.best || got != c.hash || ops != c.ops {
			t.Errorf("%s N=%d K=%d sample=%d after %d steps: conflicts %d best %d hash %s ops %d, want %d %d %s %d",
				c.h, c.n, c.k, c.sample, c.steps, s.Conflicts(), best, got, ops, c.conflicts, c.best, c.hash, c.ops)
		}
	}
}
