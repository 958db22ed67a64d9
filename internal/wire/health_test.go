package wire

import (
	"testing"
	"time"

	"everyware/internal/telemetry"
)

// fakeClock advances only when told, so cooldown behaviour is exact.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTrackedClock(max int, cool time.Duration) (*HealthTracker, *fakeClock) {
	h := NewHealthTracker(max, cool)
	fc := &fakeClock{t: time.Date(1998, 11, 7, 0, 0, 0, 0, time.UTC)}
	h.Metrics = telemetry.NewRegistry()
	h.Metrics.SetNow(fc.now)
	return h, fc
}

func TestHealthDeadMarkingThreshold(t *testing.T) {
	h, _ := newTrackedClock(3, time.Minute)
	const addr = "10.0.0.1:9000"
	if h.Failure(addr) {
		t.Fatal("dead after 1 failure")
	}
	if h.Failure(addr) {
		t.Fatal("dead after 2 failures")
	}
	if !h.Alive(addr) {
		t.Fatal("marked dead before the threshold")
	}
	if !h.Failure(addr) {
		t.Fatal("not dead after 3 failures")
	}
	if h.Alive(addr) {
		t.Fatal("alive while inside cooldown")
	}
	if h.Failures(addr) != 3 {
		t.Fatalf("failures = %d", h.Failures(addr))
	}
}

func TestHealthCooldownHalfOpen(t *testing.T) {
	h, fc := newTrackedClock(2, 30*time.Second)
	const addr = "a:1"
	h.Failure(addr)
	h.Failure(addr)
	if h.Alive(addr) {
		t.Fatal("alive immediately after dead-marking")
	}
	fc.advance(29 * time.Second)
	if h.Alive(addr) {
		t.Fatal("alive before cooldown expires")
	}
	fc.advance(2 * time.Second)
	if !h.Alive(addr) {
		t.Fatal("not half-open after cooldown")
	}
	// One further failure re-kills immediately (count is still at max).
	if !h.Failure(addr) {
		t.Fatal("half-open probe failure did not re-kill")
	}
	if h.Alive(addr) {
		t.Fatal("alive after half-open probe failed")
	}
	// A success fully recovers the address.
	fc.advance(31 * time.Second)
	h.Success(addr)
	if !h.Alive(addr) || h.Failures(addr) != 0 {
		t.Fatal("success did not clear the failure run")
	}
	if h.Failure(addr) {
		t.Fatal("single failure after recovery dead-marked")
	}
}

func TestHealthFilterAllDeadFallback(t *testing.T) {
	h, _ := newTrackedClock(1, time.Minute)
	addrs := []string{"a:1", "b:2", "c:3"}
	h.Failure("b:2")
	got := h.Filter(addrs)
	if len(got) != 2 || got[0] != "a:1" || got[1] != "c:3" {
		t.Fatalf("Filter = %v", got)
	}
	h.Failure("a:1")
	h.Failure("c:3")
	// Total lock-out: the caller still needs a candidate to probe.
	got = h.Filter(addrs)
	if len(got) != 3 {
		t.Fatalf("all-dead Filter = %v, want original list", got)
	}
}

func TestHealthReset(t *testing.T) {
	h, _ := newTrackedClock(1, time.Hour)
	h.Failure("a:1")
	h.Failure("b:2")
	h.Reset("a:1")
	if !h.Alive("a:1") {
		t.Fatal("Reset(addr) did not revive the address")
	}
	if h.Alive("b:2") {
		t.Fatal("Reset(addr) touched an unrelated address")
	}
	h.Reset()
	if !h.Alive("b:2") || h.Failures("b:2") != 0 {
		t.Fatal("Reset() did not clear all state")
	}
}

func TestHealthMetrics(t *testing.T) {
	h, fc := newTrackedClock(2, 30*time.Second)
	reg := h.Metrics
	h.Failure("a:1")
	h.Failure("a:1") // dead-marked here
	h.Failure("a:1") // still dead; must not double-count
	fc.advance(time.Minute)
	h.Success("a:1") // recovered
	h.Reset("a:1")
	snap := reg.Snapshot("")
	if got := snap.Value("wire.health.dead_marked"); got != 1 {
		t.Fatalf("dead_marked = %d, want 1", got)
	}
	if got := snap.Value("wire.health.recovered"); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	if got := snap.Value("wire.health.reset"); got != 1 {
		t.Fatalf("reset = %d, want 1", got)
	}
}
