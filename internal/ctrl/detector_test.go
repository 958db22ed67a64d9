package ctrl

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"everyware/internal/telemetry"
)

// vclock is a frozen, manually advanced clock — the detector's whole
// timing model runs on it, so these tests are exact, not sleep-based.
type vclock struct{ t time.Time }

func newVClock() *vclock                  { return &vclock{t: time.Unix(1000, 0)} }
func (c *vclock) now() time.Time          { return c.t }
func (c *vclock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *vclock) set(t time.Time)         { c.t = t }

// registry returns a fresh metrics registry on this clock — how a
// controller under test is put on virtual time.
func (c *vclock) registry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.SetNow(c.now)
	return r
}

func beatRegularly(d *Detector, c *vclock, id string, interval time.Duration, n int) {
	for i := 0; i < n; i++ {
		d.Observe(id)
		c.advance(interval)
	}
}

// A member beating like clockwork must never be judged dead while the
// beats keep arriving, must survive a silence shorter than the floor,
// and must be declared dead within a small number of missed intervals.
func TestDetectorDeclareDeadBounds(t *testing.T) {
	c := newVClock()
	d := NewDetector(DetectorConfig{}, c.registry())
	const interval = 100 * time.Millisecond
	for i := 0; i < 30; i++ {
		d.Observe("m")
		if !d.Alive("m") {
			t.Fatalf("dead while beating, beat %d", i)
		}
		c.advance(interval)
	}
	d.Observe("m")
	// Inside 1.5 intervals of silence: alive (below any plausible bound).
	c.advance(150 * time.Millisecond)
	if !d.Alive("m") {
		t.Fatalf("declared dead after 1.5 intervals of silence (phi=%.1f)", d.Phi("m"))
	}
	// By 4 intervals of silence: dead (the upper timing bound).
	c.advance(250 * time.Millisecond)
	if d.Alive("m") {
		t.Fatalf("still alive after 4 intervals of silence (phi=%.1f)", d.Phi("m"))
	}
	// Phi is monotone in silence: more waiting never revives it.
	c.advance(time.Second)
	if d.Alive("m") {
		t.Fatal("revived without a heartbeat")
	}
}

// Flap suppression: a single over-threshold pause kills the member
// once; after beats resume, the widened arrival model keeps ordinary
// jitter (and even a repeat of a moderate pause) from re-killing it —
// the verdict cannot oscillate without fresh evidence.
func TestDetectorFlapSuppression(t *testing.T) {
	c := newVClock()
	d := NewDetector(DetectorConfig{}, c.registry())
	const interval = 100 * time.Millisecond
	beatRegularly(d, c, "m", interval, 20)
	// A 1s stall: declared dead mid-silence...
	c.advance(900 * time.Millisecond) // last advance already added 100ms
	if d.Alive("m") {
		t.Fatal("alive through a 10-interval stall")
	}
	// ...and revived by the next beat, exactly once.
	d.Observe("m")
	if !d.Alive("m") {
		t.Fatal("beat did not revive the member")
	}
	// The stall joined the arrival history, so the model now tolerates
	// moderate gaps that would have been fatal before: no flapping.
	for i := 0; i < 10; i++ {
		c.advance(interval)
		d.Observe("m")
		if !d.Alive("m") {
			t.Fatalf("flapped dead on resumed beat %d (phi=%.1f)", i, d.Phi("m"))
		}
	}
	c.advance(400 * time.Millisecond)
	if !d.Alive("m") {
		t.Fatalf("flapped dead on a 4-interval pause after history widened (phi=%.1f)", d.Phi("m"))
	}
}

// Delay-only chaos (jitter up to a full interval, nothing dropped) must
// produce zero false positives: the phi model absorbs the jitter into
// its variance instead of crossing the threshold.
func TestDetectorNoFalsePositiveUnderDelayOnlyChaos(t *testing.T) {
	c := newVClock()
	d := NewDetector(DetectorConfig{}, c.registry())
	const interval = 100 * time.Millisecond
	rng := rand.New(rand.NewSource(42))
	// Sender beats every interval; delivery is delayed by up to one full
	// interval. Arrival order is delivery-time order.
	base := c.now()
	arrivals := make([]time.Time, 0, 400)
	for i := 0; i < 400; i++ {
		send := base.Add(time.Duration(i) * interval)
		delay := time.Duration(rng.Int63n(int64(interval)))
		arrivals = append(arrivals, send.Add(delay))
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	for i, at := range arrivals {
		// Probe liveness at several points between the previous arrival
		// and this one — the member must never read dead mid-stream.
		if i > 20 { // let the model see some jittered history first
			prev := arrivals[i-1]
			for _, f := range []float64{0.25, 0.5, 0.99} {
				c.set(prev.Add(time.Duration(f * float64(at.Sub(prev)))))
				if !d.Alive("m") {
					t.Fatalf("false positive at arrival %d (gap %v, phi=%.1f)",
						i, at.Sub(prev), d.Phi("m"))
				}
			}
		}
		c.set(at)
		d.Observe("m")
	}
}

// Members with too little history ride the bootstrap grace: alive until
// bootstrapGrace of silence, dead after.
func TestDetectorBootstrapGrace(t *testing.T) {
	c := newVClock()
	d := NewDetector(DetectorConfig{}, c.registry())
	d.Observe("m")
	c.advance(bootstrapGrace - 100*time.Millisecond)
	if !d.Alive("m") {
		t.Fatal("dead inside bootstrap grace")
	}
	c.advance(200 * time.Millisecond)
	if d.Alive("m") {
		t.Fatal("alive past bootstrap grace with one sample")
	}
	if d.Alive("never-seen") {
		t.Fatal("unknown member judged alive")
	}
}

// Forget drops history: the member reads dead until it beats again.
func TestDetectorForget(t *testing.T) {
	c := newVClock()
	d := NewDetector(DetectorConfig{}, c.registry())
	beatRegularly(d, c, "m", 50*time.Millisecond, 10)
	if !d.Alive("m") {
		t.Fatal("dead while beating")
	}
	d.Forget("m")
	if d.Alive("m") {
		t.Fatal("alive after Forget")
	}
	if got := d.Beats("m"); got != 0 {
		t.Fatalf("beats after Forget = %d", got)
	}
}
