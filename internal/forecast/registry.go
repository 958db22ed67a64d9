package forecast

import (
	"sort"
	"sync"
	"time"
)

// Key identifies a dynamically benchmarked program event. Following the
// paper, each request/response pair in a server is tagged with the address
// where the request is serviced and the message type of the request; any
// other repetitive program event can be tagged the same way.
type Key struct {
	// Resource is the address or name of the resource involved, e.g.
	// "gossip@128.111.1.5:9000" or "client-42".
	Resource string
	// Event is the event class, e.g. "state_update" or message type name.
	Event string
}

// Registry maps event keys to Selectors, providing the shared forecasting
// service that both the EveryWare toolkit and the application link in as a
// library. Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	selectors map[Key]*Selector
}

// NewRegistry returns an empty Registry using the DefaultBattery for new
// keys.
func NewRegistry() *Registry {
	return &Registry{selectors: make(map[Key]*Selector)}
}

// Selector returns the Selector for key, creating it on first use.
func (r *Registry) Selector(key Key) *Selector {
	r.mu.RLock()
	s, ok := r.selectors[key]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.selectors[key]; ok {
		return s
	}
	s = NewSelector(DefaultBattery()...)
	r.selectors[key] = s
	return s
}

// Record feeds one measurement for key.
func (r *Registry) Record(key Key, v float64) {
	r.Selector(key).Update(v)
}

// RecordDuration feeds one timing measurement, in seconds, for key.
func (r *Registry) RecordDuration(key Key, d time.Duration) {
	r.Record(key, d.Seconds())
}

// Forecast returns the current best prediction for key. ok is false if the
// key has never been recorded.
func (r *Registry) Forecast(key Key) (Forecast, bool) {
	r.mu.RLock()
	s, ok := r.selectors[key]
	r.mu.RUnlock()
	if !ok {
		return Forecast{}, false
	}
	return s.Forecast()
}

// Forget drops key's Selector and its history, so an event source that
// has gone for good (a departed client, an evicted holder) stops holding
// one; a later Record for key starts afresh.
func (r *Registry) Forget(key Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.selectors, key)
}

// Keys returns all registered keys in deterministic order.
func (r *Registry) Keys() []Key {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := make([]Key, 0, len(r.selectors))
	for k := range r.selectors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Resource != keys[j].Resource {
			return keys[i].Resource < keys[j].Resource
		}
		return keys[i].Event < keys[j].Event
	})
	return keys
}
