package wire

import (
	"fmt"
	"time"

	"everyware/internal/forecast"
)

// SendError wraps a failure during the send phase of a Call: the request
// was not fully written, so the remote service cannot have processed it
// (a torn write leaves an undecodable packet, which the server discards
// with the connection). Retransmitting after a SendError is always safe,
// even for non-idempotent requests.
type SendError struct {
	Err error
}

func (e *SendError) Error() string { return "wire: send failed: " + e.Err.Error() }

// Unwrap exposes the underlying transport error.
func (e *SendError) Unwrap() error { return e.Err }

// AmbiguousError reports a call whose request was fully sent but whose
// outcome is unknown: the connection broke before a reply arrived, so the
// remote service may or may not have executed the request. Non-idempotent
// requests (e.g. a persistent state store) must not be blindly
// retransmitted after an AmbiguousError; the caller owns the decision.
type AmbiguousError struct {
	Addr string
	Err  error
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("wire: call to %s outcome unknown (request sent, no reply): %v", e.Addr, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *AmbiguousError) Unwrap() error { return e.Err }

// RetryPolicy governs Client.Call retransmission: bounded attempts with
// exponential back-off. When Timeouts is set, the back-off base is derived
// from the response-time forecast for the target address (the paper's
// dynamic time-out discovery applied to retry pacing): a slow, loaded
// server earns proportionally longer pauses between attempts instead of a
// fixed schedule that would hammer it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 3).
	MaxAttempts int
	// Timeouts, when non-nil, derives the back-off base from the forecast
	// response time of the target address.
	Timeouts *forecast.TimeoutPolicy
	// BaseBackoff is the first-retry pause when no forecast is available
	// (default 25ms).
	BaseBackoff time.Duration
	// MaxBackoff clamps the pause (default 2s).
	MaxBackoff time.Duration
	// Sleep is injectable for tests (defaults to time.Sleep).
	Sleep func(time.Duration)
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// BackoffFor returns the pause before retry number attempt (1-based) to
// addr: the forecast-derived base doubled per attempt, clamped to
// MaxBackoff.
func (p *RetryPolicy) BackoffFor(addr string, attempt int) time.Duration {
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	if p.Timeouts != nil {
		key := forecast.Key{Resource: addr, Event: "call"}
		d := p.Timeouts.Backoff(key, attempt-1)
		if d > maxB {
			d = maxB
		}
		return d
	}
	base := p.BaseBackoff
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxB {
			return maxB
		}
	}
	if d > maxB {
		d = maxB
	}
	return d
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p != nil && p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}
