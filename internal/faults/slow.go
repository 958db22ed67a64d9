package faults

import (
	"sync"
	"time"

	"everyware/internal/wire"
)

// Handler-level slowdown injection. Conn-level delay (ActDelay) happens
// in the transport, after the handler has already returned — it never
// shows up in the daemon's own handle histograms or serve spans, so it
// cannot exercise the observability plane's latency detection. Slow
// puts the injected delay INSIDE the request handler: the daemon's
// wire.server.handle.* histograms inflate, its serve spans run long,
// and a scraping observatory sees the slowdown exactly the way it would
// see a real one.

// slowState holds the per-label handler delays (lazily allocated so the
// zero-cost path of an injector that never slows anything stays free).
type slowState struct {
	mu     sync.Mutex
	delays map[string]time.Duration
}

// Slow injects d of synthetic service time into every request handled
// by the daemon labelled label through a SlowHandler wrapper. A zero d
// removes the slowdown (see Unslow).
func (in *Injector) Slow(label string, d time.Duration) {
	in.slow.mu.Lock()
	defer in.slow.mu.Unlock()
	if in.slow.delays == nil {
		in.slow.delays = make(map[string]time.Duration)
	}
	if d <= 0 {
		delete(in.slow.delays, label)
		return
	}
	in.slow.delays[label] = d
}

// Unslow removes the label's handler slowdown.
func (in *Injector) Unslow(label string) { in.Slow(label, 0) }

// SlowFor reports the label's current handler slowdown (0 = none).
func (in *Injector) SlowFor(label string) time.Duration {
	in.slow.mu.Lock()
	defer in.slow.mu.Unlock()
	return in.slow.delays[label]
}

// SlowHandler wraps h so each request first serves the label's current
// slowdown. The delay is read per request, so Slow/Unslow take effect
// immediately on a live daemon.
func (in *Injector) SlowHandler(label string, h wire.Handler) wire.Handler {
	return wire.HandlerFunc(func(remote string, req *wire.Packet) (*wire.Packet, error) {
		if d := in.SlowFor(label); d > 0 {
			time.Sleep(d)
		}
		return h.Handle(remote, req)
	})
}
