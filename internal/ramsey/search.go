package ramsey

import (
	"fmt"
	"math"
	"math/rand"
)

// Heuristic names the search algorithm a computational client runs. The
// schedulers issue different control directives based on the type of
// algorithm the client is executing (section 3.1.1), so the heuristic is
// part of the work-unit description.
type Heuristic string

// The heuristics implemented by the prototype.
const (
	// HeurMinConflicts greedily flips the edge whose flip most reduces the
	// monochromatic clique count, with sideways moves on plateaus.
	HeurMinConflicts Heuristic = "min_conflicts"
	// HeurTabu is min-conflicts with a tabu list forbidding recent flips.
	HeurTabu Heuristic = "tabu"
	// HeurAnneal is simulated annealing over random edge flips.
	HeurAnneal Heuristic = "anneal"
)

// Heuristics lists all implemented heuristic names.
func Heuristics() []Heuristic {
	return []Heuristic{HeurMinConflicts, HeurTabu, HeurAnneal}
}

// SearchConfig parameterizes one search client.
type SearchConfig struct {
	// N is the number of vertices to color.
	N int
	// K is the clique size to avoid (searching a counter-example for R(K)).
	K int
	// Heuristic selects the algorithm.
	Heuristic Heuristic
	// Seed makes the stochastic search reproducible.
	Seed int64
	// SampleEdges bounds how many candidate edges a min-conflicts /tabu
	// step evaluates (0 = all edges). Sampling keeps per-step cost bounded
	// on large graphs.
	SampleEdges int
}

func (c *SearchConfig) fill() error {
	if c.N < 2 {
		return fmt.Errorf("ramsey: N must be >= 2, got %d", c.N)
	}
	if c.K < 3 {
		return fmt.Errorf("ramsey: K must be >= 3, got %d", c.K)
	}
	switch c.Heuristic {
	case HeurMinConflicts, HeurTabu, HeurAnneal:
	case "":
		c.Heuristic = HeurMinConflicts
	default:
		return fmt.Errorf("ramsey: unknown heuristic %q", c.Heuristic)
	}
	return nil
}

// Annealing starts at initTemp and multiplies the temperature by coolRate
// every step, reheating to initTemp once it falls below 0.01.
const (
	initTemp = 2.0
	coolRate = 0.9995
)

// Searcher runs one heuristic search incrementally. Clients call Step in a
// loop, reporting progress to their scheduler between batches; the
// scheduler can stop, migrate, or re-seed the search at any step boundary
// because the full search state is capturable as a Coloring. Everything
// a step touches is sized in NewSearcher, so Step allocates nothing.
type Searcher struct {
	cfg      SearchConfig
	rng      *rand.Rand
	coloring *Coloring
	current  int // current mono clique count
	best     *Coloring
	bestCnt  int
	iters    int64
	temp     float64
	tabu     []int64 // edge index -> iteration when tabu expires
	cand     []int   // the edges a greedy step evaluates
	ties     []int   // the candidates tied for a greedy step's best delta
	arena    *cliqueArena
	ops      *OpCounter
}

// NewSearcher creates a search from cfg, starting at a random coloring.
func NewSearcher(cfg SearchConfig, ops *OpCounter) (*Searcher, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ops == nil {
		ops = &OpCounter{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	col := RandomColoring(cfg.N, rng)
	e := col.Edges()
	s := &Searcher{
		cfg:      cfg,
		rng:      rng,
		coloring: col,
		temp:     initTemp,
		tabu:     make([]int64, e),
		arena:    newCliqueArena(cfg.N, cfg.K),
		ops:      ops,
	}
	if cfg.SampleEdges > 0 && cfg.SampleEdges < e {
		s.cand = make([]int, cfg.SampleEdges)
	} else {
		s.cand = make([]int, e)
		for i := range s.cand {
			s.cand[i] = i
		}
	}
	s.ties = make([]int, 0, len(s.cand))
	s.current = s.arena.count(col, cfg.K, ops)
	s.best = col.Clone()
	s.bestCnt = s.current
	return s, nil
}

// Restore replaces the current coloring (e.g. with migrated work from
// another client) and re-evaluates.
func (s *Searcher) Restore(c *Coloring) error {
	if c.N() != s.cfg.N {
		return fmt.Errorf("ramsey: restore size %d != configured %d", c.N(), s.cfg.N)
	}
	s.coloring.copyFrom(c)
	s.current = s.arena.count(s.coloring, s.cfg.K, s.ops)
	if s.current < s.bestCnt {
		s.best.copyFrom(s.coloring)
		s.bestCnt = s.current
	}
	return nil
}

// Conflicts returns the current monochromatic clique count (0 means a
// counter-example has been found).
func (s *Searcher) Conflicts() int { return s.current }

// Best returns the best coloring seen and its clique count.
func (s *Searcher) Best() (*Coloring, int) { return s.best.Clone(), s.bestCnt }

// Current returns a copy of the working coloring.
func (s *Searcher) Current() *Coloring { return s.coloring.Clone() }

// State returns the working coloring encoded, without copying it first.
func (s *Searcher) State() []byte { return s.coloring.Encode() }

// Iterations returns the number of Step calls so far.
func (s *Searcher) Iterations() int64 { return s.iters }

// Ops returns the search's operation counter.
func (s *Searcher) Ops() *OpCounter { return s.ops }

// Found reports whether the current coloring is a counter-example.
func (s *Searcher) Found() bool { return s.current == 0 }

// Step performs one heuristic move. It returns true when a counter-example
// has been found.
func (s *Searcher) Step() bool {
	if s.current == 0 {
		return true
	}
	s.iters++
	switch s.cfg.Heuristic {
	case HeurAnneal:
		s.stepAnneal()
	case HeurTabu:
		s.stepGreedy(true)
	default:
		s.stepGreedy(false)
	}
	if s.current < s.bestCnt {
		s.bestCnt = s.current
		s.best.copyFrom(s.coloring)
	}
	return s.current == 0
}

// Run executes up to maxSteps steps, returning true if a counter-example
// was found.
func (s *Searcher) Run(maxSteps int64) bool {
	for i := int64(0); i < maxSteps; i++ {
		if s.Step() {
			return true
		}
	}
	return s.current == 0
}

// candidateEdges yields the edge indices a greedy step will evaluate:
// every edge, or SampleEdges of them drawn afresh into the same buffer.
func (s *Searcher) candidateEdges() []int {
	if e := s.coloring.Edges(); len(s.cand) < e {
		for i := range s.cand {
			s.cand[i] = s.rng.Intn(e)
		}
	}
	return s.cand
}

func (s *Searcher) stepGreedy(useTabu bool) {
	bestDelta := math.MaxInt32
	bestEdges := s.ties[:0]
	for _, idx := range s.candidateEdges() {
		if useTabu && s.tabu[idx] > s.iters {
			continue
		}
		i, j := s.coloring.EdgeAt(idx)
		d := s.arena.flipDelta(s.coloring, i, j, s.cfg.K, s.ops)
		if d < bestDelta {
			bestDelta = d
			bestEdges = bestEdges[:0]
			bestEdges = append(bestEdges, idx)
		} else if d == bestDelta {
			bestEdges = append(bestEdges, idx)
		}
	}
	if len(bestEdges) == 0 {
		// Everything tabu: random restart move.
		s.randomFlip()
		return
	}
	// Plateau/random tie-break; accept worsening moves occasionally to
	// escape local minima (min-conflicts noise strategy).
	idx := bestEdges[s.rng.Intn(len(bestEdges))]
	if bestDelta > 0 && !useTabu && s.rng.Float64() > 0.05 {
		// Reject the uphill move 95% of the time; take a random walk
		// instead.
		s.randomFlip()
		return
	}
	i, j := s.coloring.EdgeAt(idx)
	s.coloring.Flip(i, j)
	s.current += bestDelta
	if useTabu {
		s.tabu[idx] = s.iters + int64(2*s.cfg.N) // a flipped edge stays tabu for 2N iterations
	}
}

func (s *Searcher) randomFlip() {
	idx := s.rng.Intn(s.coloring.Edges())
	i, j := s.coloring.EdgeAt(idx)
	d := s.arena.flipDelta(s.coloring, i, j, s.cfg.K, s.ops)
	s.coloring.Flip(i, j)
	s.current += d
}

func (s *Searcher) stepAnneal() {
	idx := s.rng.Intn(s.coloring.Edges())
	i, j := s.coloring.EdgeAt(idx)
	d := s.arena.flipDelta(s.coloring, i, j, s.cfg.K, s.ops)
	if d <= 0 || s.rng.Float64() < math.Exp(-float64(d)/s.temp) {
		s.coloring.Flip(i, j)
		s.current += d
	}
	s.temp *= coolRate
	if s.temp < 0.01 {
		s.temp = initTemp // reheat
	}
}
