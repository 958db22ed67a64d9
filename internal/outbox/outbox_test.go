package outbox

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPendingCoalescesInOrder: last write wins per key, the key keeps its
// first-insertion place, Put reports the destination's length, and a
// size-triggered Take empties the destination.
func TestPendingCoalescesInOrder(t *testing.T) {
	var p Pending[string, int]
	for i, put := range []struct {
		key       string
		item, n   int
		coalesced bool
	}{
		{"k1", 1, 1, false},
		{"k2", 2, 2, false},
		{"k1", 10, 2, true}, // same key: replaces, does not grow
		{"k3", 3, 3, false},
	} {
		n, coalesced := p.Put("shard-a", put.key, put.item)
		if n != put.n || coalesced != put.coalesced {
			t.Fatalf("put %d: n=%d coalesced=%v, want %d %v", i, n, coalesced, put.n, put.coalesced)
		}
	}
	if got := p.Take("shard-a", 3); !reflect.DeepEqual(got, []int{10, 2, 3}) {
		t.Fatalf("took %v, want [10 2 3]", got)
	}
	if p.Len() != 0 || p.Take("shard-a", 3) != nil {
		t.Fatalf("destination not empty after a full take: %d pending", p.Len())
	}
}

// TestPendingTakeBounded: a Take below the destination's length returns
// the oldest keys and leaves the rest, still in order and still
// coalescing.
func TestPendingTakeBounded(t *testing.T) {
	var p Pending[int, string]
	for i, v := range []string{"a", "b", "c", "d"} {
		p.Put("d", i, v)
	}
	if got := p.Take("d", 2); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("first take %v, want [a b]", got)
	}
	if n, coalesced := p.Put("d", 0, "a2"); n != 3 || coalesced {
		t.Fatalf("re-put of a taken key: n=%d coalesced=%v, want 3 false", n, coalesced)
	}
	if _, coalesced := p.Put("d", 3, "d2"); !coalesced {
		t.Fatal("put over a pending key did not coalesce")
	}
	if got := p.Take("d", MaxBatch); !reflect.DeepEqual(got, []string{"c", "d2", "a2"}) {
		t.Fatalf("second take %v, want [c d2 a2]", got)
	}
}

// TestPendingTakeAllSorted: TakeAll drains every destination exactly
// once, in sorted destination order.
func TestPendingTakeAllSorted(t *testing.T) {
	var p Pending[string, string]
	p.Put("shard-b", "k1", "y")
	p.Put("shard-a", "k1", "x")
	p.Put("shard-c", "k1", "z")
	got := p.TakeAll()
	want := []Batch[string]{
		{Dest: "shard-a", Items: []string{"x"}},
		{Dest: "shard-b", Items: []string{"y"}},
		{Dest: "shard-c", Items: []string{"z"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeAll = %v, want %v", got, want)
	}
	if again := p.TakeAll(); len(again) != 0 {
		t.Fatalf("second TakeAll returned %v", again)
	}
}

// TestPendingConservation is the law the sweep's zero-lost-reports claim
// and the gossip share path both lean on: under concurrent Put and Take,
// every put is taken, still pending, or was coalesced — nothing is lost
// and nothing is counted twice.
func TestPendingConservation(t *testing.T) {
	var p Pending[int, int]
	dests := []string{"a", "b", "c"}
	var puts, coalesced, taken atomic.Int64
	stop := make(chan struct{})
	var takers, putters sync.WaitGroup
	for i := 0; i < 2; i++ {
		takers.Add(1)
		go func(i int) {
			defer takers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i == 0 {
					taken.Add(int64(len(p.Take(dests[0], 5))))
					continue
				}
				for _, b := range p.TakeAll() {
					taken.Add(int64(len(b.Items)))
				}
			}
		}(i)
	}
	for w := 0; w < 4; w++ {
		putters.Add(1)
		go func(w int) {
			defer putters.Done()
			for i := 0; i < 5000; i++ {
				// 32 keys per destination, so puts collide often.
				if _, dup := p.Put(dests[(w+i)%len(dests)], i%32, i); dup {
					coalesced.Add(1)
				}
				puts.Add(1)
			}
		}(w)
	}
	putters.Wait()
	close(stop)
	takers.Wait()
	if got := taken.Load() + int64(p.Len()) + coalesced.Load(); got != puts.Load() {
		t.Fatalf("puts=%d but taken=%d + pending=%d + coalesced=%d = %d",
			puts.Load(), taken.Load(), p.Len(), coalesced.Load(), got)
	}
}

// TestSenderMergesWhileSending: puts that arrive while a delivery is in
// flight merge and go out together in the next one — the sender never
// needs a timer to find them.
func TestSenderMergesWhileSending(t *testing.T) {
	var p Pending[int, int]
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var rounds [][]int
	var mu sync.Mutex
	s := NewSender(func() bool {
		items := p.Take("d", MaxBatch)
		if len(items) == 0 {
			return false
		}
		mu.Lock()
		rounds = append(rounds, items)
		first := len(rounds) == 1
		mu.Unlock()
		if first {
			close(inFlight)
			<-release
		}
		return true
	})
	p.Put("d", 0, 0)
	s.Kick()
	<-inFlight
	for i := 1; i <= 3; i++ {
		p.Put("d", i, i)
		s.Kick() // never blocks, however many kicks pile up
	}
	close(release)
	s.Close()
	if want := [][]int{{0}, {1, 2, 3}}; !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
}

// TestSenderCloseDeliversAndStops: Close delivers everything put before
// it even if nobody kicked, is idempotent and safe to race, leaves no
// goroutine, and a later Kick delivers nothing.
func TestSenderCloseDeliversAndStops(t *testing.T) {
	base := runtime.NumGoroutine()
	var p Pending[int, int]
	var delivered atomic.Int64
	s := NewSender(func() bool {
		n := len(p.Take("d", MaxBatch))
		delivered.Add(int64(n))
		return n > 0
	})
	const puts = 3*MaxBatch + 1 // several rounds' worth
	for i := 0; i < puts; i++ {
		p.Put("d", i, i)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	if delivered.Load() != puts {
		t.Fatalf("Close delivered %d of %d", delivered.Load(), puts)
	}
	p.Put("d", 0, 0)
	s.Kick()
	s.Kick()
	waitGoroutines(t, base)
	if delivered.Load() != puts || p.Len() != 1 {
		t.Fatalf("a kick after Close delivered: %d delivered, %d pending", delivered.Load(), p.Len())
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
