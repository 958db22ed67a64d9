package forecast

import "time"

// TimeoutPolicy derives message time-out intervals from response-time
// forecasts. The paper found dynamic time-out discovery "crucial to
// overall program stability": statically determined time-outs caused the
// system to misjudge server availability under the SC98 exhibit floor's
// fluctuating network load, triggering needless retries and
// reconfigurations.
type TimeoutPolicy struct {
	// Registry supplies response-time forecasts.
	Registry *Registry
	// Multiplier scales the forecast response time; the slack absorbs
	// forecast error. Typical value 4.
	Multiplier float64
	// Pad is added after scaling to cover fixed costs.
	Pad time.Duration
	// Min and Max clamp the derived timeout.
	Min, Max time.Duration
	// Default is used while a key has no measurements yet.
	Default time.Duration
}

// NewTimeoutPolicy returns a policy with the standard EveryWare
// parameters: 4x forecast + 50 ms pad, clamped to [100 ms, 30 s], 5 s
// default before first measurement.
func NewTimeoutPolicy(r *Registry) *TimeoutPolicy {
	return &TimeoutPolicy{
		Registry:   r,
		Multiplier: 4,
		Pad:        50 * time.Millisecond,
		Min:        100 * time.Millisecond,
		Max:        30 * time.Second,
		Default:    5 * time.Second,
	}
}

// Timeout returns the adaptive time-out interval for the event key: the
// forecast response time scaled and clamped, or Default if no data exists.
func (p *TimeoutPolicy) Timeout(key Key) time.Duration {
	f, ok := p.Registry.Forecast(key)
	if !ok || f.Value <= 0 {
		return p.Default
	}
	// Clamp to Max before converting: a forecast past MaxInt64 ns would
	// otherwise become a negative Duration that the Min clamp then raises.
	ns := f.Value * p.Multiplier * float64(time.Second)
	if ns >= float64(p.Max-p.Pad) {
		return p.Max
	}
	return min(max(time.Duration(ns)+p.Pad, p.Min), p.Max)
}

// Observe records a measured response time for key so subsequent Timeout
// calls adapt. Timed-out attempts should be recorded at the timeout value
// itself (the response took at least that long), which pushes the next
// interval up.
func (p *TimeoutPolicy) Observe(key Key, d time.Duration) {
	p.Registry.RecordDuration(key, d)
}

// Backoff derives a retry back-off interval for the given retry number
// (0-based) from the response-time forecast: roughly one forecast response
// time before the first retry, doubling per subsequent retry, clamped to
// [Min, Max]. A loaded or distant server thereby earns proportionally
// longer pauses between attempts, where a static schedule would either
// hammer it or idle a fast link.
func (p *TimeoutPolicy) Backoff(key Key, retry int) time.Duration {
	base := p.Min
	if f, ok := p.Registry.Forecast(key); ok && f.Value > 0 {
		// Clamp before converting, as in Timeout.
		ns := f.Value * float64(time.Second)
		if ns >= float64(p.Max) {
			return p.Max
		}
		base = max(time.Duration(ns), p.Min)
	}
	d := base
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= p.Max {
			return p.Max
		}
	}
	if d > p.Max {
		d = p.Max
	}
	return d
}
