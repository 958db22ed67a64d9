// Package faults is the toolkit's fault-injection harness. It perturbs
// the lingua franca's transport — dropping, delaying, duplicating,
// resetting, and tearing messages, and partitioning groups of processes —
// so the degradation machinery built for the SC98 run (retry, back-off,
// fail-over, clique re-merge) can be exercised deterministically on a
// developer machine instead of waiting for the exhibit floor to misbehave.
//
// Determinism: every logical stream (an ordered pair of process labels)
// owns a private random sequence derived from the injector seed and the
// stream name alone. The fault schedule of a stream is therefore a pure
// function of (seed, stream, message index) — independent of wall-clock
// time, ephemeral port numbers, and the interleaving of other streams.
// Two runs with the same seed subject every stream to the identical
// fault sequence, even though goroutine scheduling differs.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/wire"
)

// Action is one fault verdict for one message.
type Action int

const (
	// ActNone delivers the message untouched.
	ActNone Action = iota
	// ActDrop silently discards the message; the sender believes it was
	// sent (the receiver simply never sees it).
	ActDrop
	// ActDelay delivers the message after a bounded random pause.
	ActDelay
	// ActDup delivers the message twice back-to-back (duplicate
	// delivery, the case idempotency registration exists for).
	ActDup
	// ActReset closes the connection before the message is written
	// (a refused/reset link; nothing reached the peer).
	ActReset
	// ActTorn writes a prefix of the message and then closes the
	// connection — the torn write persistent state must survive.
	ActTorn
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActDup:
		return "dup"
	case ActReset:
		return "reset"
	case ActTorn:
		return "torn"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Config sets per-message fault probabilities. Probabilities are
// evaluated in the order drop, dup, reset, torn, delay against a single
// uniform draw, so their sum must not exceed 1.
type Config struct {
	// Seed makes every fault schedule reproducible.
	Seed int64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reset is the probability the connection is reset before a send.
	Reset float64
	// Torn is the probability a message is cut mid-frame and the
	// connection closed.
	Torn float64
	// Delay is the probability a message is paused before delivery.
	Delay float64
	// MaxDelay bounds injected pauses (default 50ms).
	MaxDelay time.Duration
}

// Stats counts injected faults and survivals. All fields are cumulative.
type Stats struct {
	Messages   int64 // messages offered to the injector
	Delivered  int64 // messages passed through (possibly delayed/duplicated)
	Dropped    int64
	Delayed    int64
	Duplicated int64
	Resets     int64
	Torn       int64
	Refused    int64 // dials refused by an active partition
}

// Injector owns the fault schedule. One Injector is shared by every
// process of a chaos scenario; processes identify themselves by label.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	streams  map[string]*rand.Rand
	labels   map[string]string          // address -> logical label
	blocked  map[string]map[string]bool // label -> labels it cannot reach
	disabled bool

	slow slowState // handler-level slowdowns (see slow.go)

	messages, delivered, dropped, delayed atomic.Int64
	duplicated, resets, torn, refused     atomic.Int64
}

// New creates an injector with the given configuration.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	return &Injector{
		cfg:     cfg,
		streams: make(map[string]*rand.Rand),
		labels:  make(map[string]string),
		blocked: make(map[string]map[string]bool),
	}
}

// RegisterName maps a concrete address to a stable logical label.
// Ephemeral ports differ between runs; labels keep stream names — and
// therefore fault schedules — identical across runs.
func (in *Injector) RegisterName(addr, label string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.labels[addr] = label
}

// LabelFor resolves an address to its registered label (the address
// itself when unregistered).
func (in *Injector) LabelFor(addr string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if l, ok := in.labels[addr]; ok {
		return l
	}
	return addr
}

// SetEnabled turns injection off (pass-through) or back on — used to let
// a scenario bootstrap cleanly before the chaos starts.
func (in *Injector) SetEnabled(enabled bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disabled = !enabled
}

// Partition blocks all traffic between the labels in a and the labels in
// b, in both directions, in addition to any existing blocks. New dials
// across the cut are refused and established connections across it fail
// on their next send.
func (in *Injector) Partition(a, b []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			if in.blocked[x] == nil {
				in.blocked[x] = make(map[string]bool)
			}
			if in.blocked[y] == nil {
				in.blocked[y] = make(map[string]bool)
			}
			in.blocked[x][y] = true
			in.blocked[y][x] = true
		}
	}
}

// Isolate cuts one label off from every other process.
func (in *Injector) Isolate(label string) {
	in.mu.Lock()
	others := make([]string, 0, len(in.labels))
	seen := map[string]bool{label: true}
	for _, l := range in.labels {
		if !seen[l] {
			seen[l] = true
			others = append(others, l)
		}
	}
	in.mu.Unlock()
	in.Partition([]string{label}, others)
}

// Heal removes every partition. Fault probabilities remain in force.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked = make(map[string]map[string]bool)
}

// Partitioned reports whether traffic between the two labels is blocked.
func (in *Injector) Partitioned(a, b string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.blocked[a][b]
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Messages:   in.messages.Load(),
		Delivered:  in.delivered.Load(),
		Dropped:    in.dropped.Load(),
		Delayed:    in.delayed.Load(),
		Duplicated: in.duplicated.Load(),
		Resets:     in.resets.Load(),
		Torn:       in.torn.Load(),
		Refused:    in.refused.Load(),
	}
}

// rng returns the stream's private random source, creating it on first
// use from FNV(seed, stream). Callers must hold no other injector state
// while using it; all draws happen under in.mu via verdict.
func (in *Injector) rngLocked(stream string) *rand.Rand {
	r, ok := in.streams[stream]
	if !ok {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", in.cfg.Seed, stream)
		r = rand.New(rand.NewSource(int64(h.Sum64())))
		in.streams[stream] = r
	}
	return r
}

// verdict draws the next fault decision for stream. Exactly two uniform
// draws are consumed per message regardless of outcome, so a stream's
// schedule depends only on its own message count.
func (in *Injector) verdict(stream string) (Action, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rngLocked(stream)
	u := r.Float64()
	d := time.Duration(r.Float64() * float64(in.cfg.MaxDelay))
	if in.disabled {
		return ActNone, 0
	}
	c := in.cfg
	switch {
	case u < c.Drop:
		return ActDrop, 0
	case u < c.Drop+c.Dup:
		return ActDup, 0
	case u < c.Drop+c.Dup+c.Reset:
		return ActReset, 0
	case u < c.Drop+c.Dup+c.Reset+c.Torn:
		return ActTorn, 0
	case u < c.Drop+c.Dup+c.Reset+c.Torn+c.Delay:
		return ActDelay, d
	}
	return ActNone, 0
}

// ScheduleFor returns the first n fault verdicts of a stream, consuming
// them — use on a dedicated injector to inspect or compare schedules.
func (in *Injector) ScheduleFor(stream string, n int) []Action {
	out := make([]Action, n)
	for i := range out {
		out[i], _ = in.verdict(stream)
	}
	return out
}

// Transport returns inner (nil means TCP) as seen by the process
// labelled from: dials are refused across active partitions, and every
// connection it opens injects the from->to stream's fault schedule into
// outbound frames. Listen is inner's. The peer's label is looked up at
// dial time, so a process may register its own label after binding an
// ephemeral port. Real sockets and in-memory pipes take faults
// identically, so a chaos scenario runs unchanged over either substrate.
func (in *Injector) Transport(inner wire.Transport, from string) wire.Transport {
	if inner == nil {
		inner = wire.TCP
	}
	return faultTransport{Transport: inner, in: in, from: from}
}

// faultTransport is the Transport Injector.Transport returns.
type faultTransport struct {
	wire.Transport
	in   *Injector
	from string
}

func (t faultTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	to := t.in.LabelFor(addr)
	if t.in.Partitioned(t.from, to) {
		t.in.refused.Add(1)
		return nil, fmt.Errorf("faults: %s -> %s partitioned", t.from, to)
	}
	nc, err := t.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return t.in.wrap(nc, t.from, to), nil
}
