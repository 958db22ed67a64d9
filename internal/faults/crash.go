package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"

	"everyware/internal/pstate"
)

// ErrCrash is the sentinel a crash-point hook returns to simulate process
// death inside pstate.Server.persist. Code observing it must treat the
// daemon as dead: the test harness restarts a fresh Server over the same
// data directory and asserts the recovery scan's behaviour.
var ErrCrash = errors.New("faults: injected crash")

// Crasher schedules deterministic process-death injection at the persist
// crash sites (see pstate.CrashSites). Like the message injector, the
// schedule is a pure function of (seed, label, visit index), so a failing
// crash-restart run replays exactly.
type Crasher struct {
	prob  float64
	sites map[pstate.CrashSite]bool

	mu    sync.Mutex
	rng   *rand.Rand
	armed pstate.CrashSite // one-shot arm ("" = probabilistic mode)

	crashes atomic.Int64
	max     int64
}

// NewCrasher builds a crash scheduler for one daemon label. Each visit to
// an eligible site crashes with probability prob, up to max total crashes
// (0 = unlimited). Passing no sites makes every site eligible.
func NewCrasher(seed int64, label string, prob float64, max int, sites ...pstate.CrashSite) *Crasher {
	h := fnv.New64a()
	fmt.Fprintf(h, "crash|%d|%s", seed, label)
	c := &Crasher{
		prob:  prob,
		rng:   rand.New(rand.NewSource(int64(h.Sum64()))),
		sites: make(map[pstate.CrashSite]bool),
		max:   int64(max),
	}
	for _, s := range sites {
		c.sites[s] = true
	}
	return c
}

// ArmOnce forces exactly one crash at the next visit to site, regardless
// of probability — the deterministic mode the crash-point test table uses.
func (c *Crasher) ArmOnce(site pstate.CrashSite) {
	c.mu.Lock()
	c.armed = site
	c.mu.Unlock()
}

// Crashes reports how many crashes have been injected.
func (c *Crasher) Crashes() int64 { return c.crashes.Load() }

// Hook returns the function to install as pstate.ServerConfig.CrashPoints.
func (c *Crasher) Hook() func(pstate.CrashSite) error {
	return func(site pstate.CrashSite) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.armed != "" {
			if c.armed != site {
				return nil
			}
			c.armed = ""
			c.crashes.Add(1)
			return fmt.Errorf("%w at %s", ErrCrash, site)
		}
		if len(c.sites) > 0 && !c.sites[site] {
			return nil
		}
		if c.max > 0 && c.crashes.Load() >= c.max {
			return nil
		}
		if c.rng.Float64() < c.prob {
			c.crashes.Add(1)
			return fmt.Errorf("%w at %s", ErrCrash, site)
		}
		return nil
	}
}
