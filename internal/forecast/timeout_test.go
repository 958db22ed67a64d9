package forecast

import (
	"math"
	"testing"
	"time"
)

func TestBackoffZeroHistory(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	key := Key{Resource: "host", Event: "report"}
	if got := p.Backoff(key, 0); got != p.Min {
		t.Errorf("Backoff with no history = %v, want Min %v", got, p.Min)
	}
	if got := p.Backoff(key, 2); got != 4*p.Min {
		t.Errorf("Backoff retry 2 with no history = %v, want %v", got, 4*p.Min)
	}
}

func TestBackoffSingleSample(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	key := Key{Resource: "host", Event: "report"}
	p.Observe(key, 200*time.Millisecond)
	got := p.Backoff(key, 0)
	// Every forecaster predicts the constant after one sample, so the base
	// pause tracks the measured response time.
	if got < 150*time.Millisecond || got > 250*time.Millisecond {
		t.Errorf("Backoff after one 200ms sample = %v, want ~200ms", got)
	}
	if next := p.Backoff(key, 1); next < got*2-time.Millisecond || next > got*2+time.Millisecond {
		t.Errorf("Backoff retry 1 = %v, want double retry 0 (%v)", next, got)
	}
}

func TestBackoffMonotoneGrowthCappedAtMax(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	key := Key{Resource: "host", Event: "report"}
	p.Observe(key, 150*time.Millisecond)
	prev := time.Duration(0)
	hitMax := false
	for retry := 0; retry < 64; retry++ {
		d := p.Backoff(key, retry)
		if d < prev {
			t.Fatalf("Backoff shrank: retry %d gave %v after %v", retry, d, prev)
		}
		if d > p.Max {
			t.Fatalf("Backoff exceeded Max: retry %d gave %v", retry, d)
		}
		hitMax = hitMax || d == p.Max
		prev = d
	}
	if !hitMax {
		t.Error("Backoff never reached Max over 64 doublings")
	}
	// Far past the cap the doubling loop must neither overflow nor hang.
	if got := p.Backoff(key, 100000); got != p.Max {
		t.Errorf("Backoff at huge retry = %v, want Max %v", got, p.Max)
	}
}

func TestBackoffSubMinForecastClampsUp(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	key := Key{Resource: "fast", Event: "report"}
	p.Observe(key, time.Millisecond) // forecast far below Min
	if got := p.Backoff(key, 0); got != p.Min {
		t.Errorf("Backoff with 1ms forecast = %v, want Min %v", got, p.Min)
	}
}

// TestTimeoutHugeForecastClampsToMax: a forecast whose scaled Duration
// overflows int64 must clamp down to Max, not wrap negative and clamp up
// to Min (the parent returned 100 ms for the first two rows).
func TestTimeoutHugeForecastClampsToMax(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	edge := (p.Max - p.Pad) / 4 // the measurement whose Timeout is exactly Max
	for _, tc := range []struct {
		name             string
		observed         time.Duration
		timeout, backoff time.Duration
	}{
		{"100 years", 100 * 365 * 24 * time.Hour, p.Max, p.Max},
		{"MaxInt64", time.Duration(math.MaxInt64), p.Max, p.Max},
		{"timeout just below Max", edge - time.Millisecond, p.Max - 4*time.Millisecond, edge - time.Millisecond},
		{"timeout just above Max", edge + time.Millisecond, p.Max, edge + time.Millisecond},
		{"backoff just below Max", p.Max - time.Millisecond, p.Max, p.Max - time.Millisecond},
		{"backoff just above Max", p.Max + time.Millisecond, p.Max, p.Max},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := Key{Resource: tc.name, Event: "report"}
			p.Observe(key, tc.observed)
			// One sample: every method predicts it exactly, up to the
			// float64 round trip through seconds.
			near := func(got, want time.Duration) bool {
				return got <= p.Max && got >= want-time.Microsecond && got <= want+time.Microsecond
			}
			if got := p.Timeout(key); !near(got, tc.timeout) {
				t.Errorf("Timeout = %v, want %v", got, tc.timeout)
			}
			if got := p.Backoff(key, 0); !near(got, tc.backoff) {
				t.Errorf("Backoff(0) = %v, want %v", got, tc.backoff)
			}
		})
	}
}

func TestTimeoutDefaultsAndClamps(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	key := Key{Resource: "host", Event: "report"}
	if got := p.Timeout(key); got != p.Default {
		t.Errorf("Timeout with no history = %v, want Default %v", got, p.Default)
	}
	p.Observe(key, time.Millisecond)
	if got := p.Timeout(key); got != p.Min {
		t.Errorf("Timeout with tiny forecast = %v, want Min %v", got, p.Min)
	}
	slow := Key{Resource: "slow", Event: "report"}
	p.Observe(slow, 2*time.Minute)
	if got := p.Timeout(slow); got != p.Max {
		t.Errorf("Timeout with huge forecast = %v, want Max %v", got, p.Max)
	}
}
