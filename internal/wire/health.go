package wire

import (
	"sync"
	"time"

	"everyware/internal/telemetry"
)

// HealthTracker records per-address consecutive call failures and marks an
// address dead after MaxFailures in a row, for a Cooldown. It is the
// failure-aware half of service fail-over: callers skip dead addresses
// while any live alternative exists, probe dead ones again after the
// cooldown (half-open), and Reset an address when fresher roster
// information announces it as viable again (the paper circulates
// scheduler birth/death through the Gossip service).
type HealthTracker struct {
	mu    sync.Mutex
	max   int
	cool  time.Duration
	state map[string]*healthState
	// Metrics, when set, counts state transitions
	// (wire.health.dead_marked, wire.health.recovered, wire.health.reset)
	// and is the clock cooldowns run on. Nil discards the counts and
	// reads real time. Set before concurrent use.
	Metrics *telemetry.Registry
}

type healthState struct {
	consecutive int
	deadUntil   time.Time
}

// NewHealthTracker returns a tracker that declares an address dead after
// maxFailures consecutive failures (default 3) for cooldown (default 10s).
func NewHealthTracker(maxFailures int, cooldown time.Duration) *HealthTracker {
	if maxFailures <= 0 {
		maxFailures = 3
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &HealthTracker{
		max:   maxFailures,
		cool:  cooldown,
		state: make(map[string]*healthState),
	}
}

// Failure records one failed call to addr. It returns true if the address
// is now (or already was) marked dead.
func (h *HealthTracker) Failure(addr string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[addr]
	if st == nil {
		st = &healthState{}
		h.state[addr] = st
	}
	st.consecutive++
	if st.consecutive >= h.max {
		if st.consecutive == h.max {
			h.Metrics.Counter("wire.health.dead_marked").Inc()
		}
		st.deadUntil = h.Metrics.Now().Add(h.cool)
		return true
	}
	return false
}

// Success records one successful call to addr, clearing its failure run.
func (h *HealthTracker) Success(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.state[addr]; st != nil {
		if st.consecutive >= h.max {
			h.Metrics.Counter("wire.health.recovered").Inc()
		}
		st.consecutive = 0
		st.deadUntil = time.Time{}
	}
}

// Alive reports whether addr should be tried: true unless the address is
// inside its dead cooldown. After the cooldown expires the address is
// half-open — it will be tried again, and a single further failure
// re-kills it immediately.
func (h *HealthTracker) Alive(addr string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[addr]
	if st == nil {
		return true
	}
	return !h.Metrics.Now().Before(st.deadUntil)
}

// Failures returns the current consecutive failure count for addr.
func (h *HealthTracker) Failures(addr string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.state[addr]; st != nil {
		return st.consecutive
	}
	return 0
}

// Reset forgets all recorded state for the given addresses (all addresses
// when none are given) — the rejoin path taken when a replicated roster
// re-announces an address.
func (h *HealthTracker) Reset(addrs ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Metrics.Counter("wire.health.reset").Inc()
	if len(addrs) == 0 {
		h.state = make(map[string]*healthState)
		return
	}
	for _, a := range addrs {
		delete(h.state, a)
	}
}

// Filter returns the members of addrs currently alive. If every address is
// dead, it returns addrs unchanged: total lock-out would otherwise leave
// the caller with no candidates at all, and a dead-marked address is still
// the best available probe.
func (h *HealthTracker) Filter(addrs []string) []string {
	alive := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if h.Alive(a) {
			alive = append(alive, a)
		}
	}
	if len(alive) == 0 {
		return addrs
	}
	return alive
}
