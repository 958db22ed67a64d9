// Package outbox is the toolkit's one way to buffer what is bound for a
// destination and send it off the caller's path. It has two parts and no
// clock: Pending merges data per destination while a send is in flight,
// and Sender is a goroutine the owner kicks — without blocking — whenever
// something is pending. There is no flush timer: what is buffered is sent
// as soon as the sender is free, and whatever arrives meanwhile merges
// into the next send. The package is a leaf; it imports no other
// everyware package.
package outbox

import (
	"sort"
	"sync"
)

// MaxBatch is the batch size every owner uses when it bounds one send.
const MaxBatch = 64

// Pending buffers items per destination, last write wins per key, in
// order of each key's first insertion. It is safe for concurrent use.
type Pending[K comparable, T any] struct {
	mu    sync.Mutex
	dests map[string]*destBuf[K, T]
}

type destBuf[K comparable, T any] struct {
	order []K
	byKey map[K]T
}

// Batch is what one destination held when it was taken.
type Batch[T any] struct {
	Dest  string
	Items []T
}

// Put buffers item for dest under key. It returns how many keys dest now
// holds and whether item replaced (coalesced over) a pending item with
// the same key, which keeps that item's place in the order.
func (p *Pending[K, T]) Put(dest string, key K, item T) (n int, coalesced bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.dests[dest]
	if b == nil {
		if p.dests == nil {
			p.dests = make(map[string]*destBuf[K, T])
		}
		b = &destBuf[K, T]{byKey: make(map[K]T)}
		p.dests[dest] = b
	}
	if _, coalesced = b.byKey[key]; !coalesced {
		b.order = append(b.order, key)
	}
	b.byKey[key] = item
	return len(b.order), coalesced
}

// Take removes and returns up to max of dest's items, oldest key first.
func (p *Pending[K, T]) Take(dest string, max int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.takeLocked(dest, max)
}

// TakeAll removes and returns everything pending, one batch per
// destination in sorted destination order, so delivery order is
// deterministic.
func (p *Pending[K, T]) TakeAll() []Batch[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	dests := make([]string, 0, len(p.dests))
	for d := range p.dests {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	out := make([]Batch[T], len(dests))
	for i, d := range dests {
		out[i] = Batch[T]{Dest: d, Items: p.takeLocked(d, len(p.dests[d].order))}
	}
	return out
}

// Len returns the number of items pending across all destinations.
func (p *Pending[K, T]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, b := range p.dests {
		n += len(b.order)
	}
	return n
}

func (p *Pending[K, T]) takeLocked(dest string, max int) []T {
	b := p.dests[dest]
	if b == nil || max <= 0 {
		return nil
	}
	if max >= len(b.order) {
		max = len(b.order)
		delete(p.dests, dest)
	}
	items := make([]T, max)
	for i, k := range b.order[:max] {
		items[i] = b.byKey[k]
		delete(b.byKey, k)
	}
	b.order = b.order[max:]
	return items
}

// Sender runs an owner's deliver callback on one goroutine whenever it
// has been kicked. Kicks never block and never queue more than one, so
// data put while a delivery is in flight merges and goes out with the
// next one.
type Sender struct {
	deliver func() bool
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// NewSender starts the sender goroutine. deliver sends one round of
// whatever the owner has pending and reports whether it found anything;
// the sender calls it again until it reports false. Close stops it.
func NewSender(deliver func() bool) *Sender {
	s := &Sender{
		deliver: deliver,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *Sender) run() {
	defer close(s.done)
	for stopped := false; !stopped; {
		select {
		case <-s.kick:
		case <-s.stop:
			stopped = true // after one last delivery
		}
		for s.deliver() {
		}
	}
}

// Kick tells the sender something is pending. It never blocks, and after
// Close it does nothing.
func (s *Sender) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Close delivers what was pending before it was called, stops the
// goroutine and returns once it has exited. It is idempotent.
func (s *Sender) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
