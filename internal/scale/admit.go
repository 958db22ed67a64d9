package scale

import (
	"sync"
	"time"

	"everyware/internal/telemetry"
)

// Priority orders report classes for the shed decision. Higher values are
// shed last.
type Priority uint8

// Priorities. Interactive applet traffic rides PriLow (a missed report
// only delays the next parcel); computational clients carrying migratable
// state ride PriHigh (a missed report delays migration and forecasting).
const (
	PriLow Priority = iota
	PriNorm
	PriHigh
)

// String names the priority for telemetry.
func (p Priority) String() string {
	switch p {
	case PriLow:
		return "low"
	case PriHigh:
		return "high"
	default:
		return "norm"
	}
}

// AdmitterConfig parameterizes one shard's token bucket.
type AdmitterConfig struct {
	// Rate is the sustained admission rate in reports/second.
	Rate float64
	// Burst is the bucket capacity (defaults to Rate, min 1).
	Burst float64
	// LowReserve is the bucket fraction below which PriLow is shed and
	// below half of which PriNorm is shed, keeping headroom for PriHigh.
	// Defaults to 0.2.
	LowReserve float64
	// Metrics records scale.admit.* / scale.shed.* counters and is the
	// clock the bucket refills on (virtual time under simulation). Nil
	// discards the counts and reads real time.
	Metrics *telemetry.Registry
}

// Admitter is a priority-aware token bucket: one per shard, consulted
// before any report mutates scheduler state. When the bucket runs low the
// lowest priorities are shed first, and a shed is a degraded success
// (ErrShed) — the client keeps computing and re-reports later.
type Admitter struct {
	cfg AdmitterConfig

	mu     sync.Mutex
	tokens float64
	last   time.Time

	admitted *telemetry.Counter
	shed     [3]*telemetry.Counter
	shedAll  *telemetry.Counter
}

// NewAdmitter builds an admitter. Rate <= 0 admits everything.
func NewAdmitter(cfg AdmitterConfig) *Admitter {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.LowReserve <= 0 {
		cfg.LowReserve = 0.2
	}
	a := &Admitter{cfg: cfg, tokens: cfg.Burst, last: cfg.Metrics.Now()}
	a.admitted = cfg.Metrics.Counter("scale.admit.ok")
	a.shed[PriLow] = cfg.Metrics.Counter("scale.shed.low")
	a.shed[PriNorm] = cfg.Metrics.Counter("scale.shed.norm")
	a.shed[PriHigh] = cfg.Metrics.Counter("scale.shed.high")
	a.shedAll = cfg.Metrics.Counter("scale.shed.total")
	return a
}

// Admit asks for one token at the given priority. It returns nil when
// admitted and ErrShed when shed.
func (a *Admitter) Admit(pri Priority) error {
	if a == nil || a.cfg.Rate <= 0 {
		return nil
	}
	a.mu.Lock()
	a.refillLocked()
	ok := false
	if a.tokens >= 1 && a.tokens >= a.floorFor(pri) {
		a.tokens--
		ok = true
	}
	a.mu.Unlock()
	if !ok {
		a.shed[pri].Add(1)
		a.shedAll.Add(1)
		return ErrShed
	}
	a.admitted.Add(1)
	return nil
}

// AdmitN asks for n tokens at the given priority and returns how many
// were granted — the batch handler admits a prefix and sheds the rest.
func (a *Admitter) AdmitN(pri Priority, n int) int {
	if a == nil || a.cfg.Rate <= 0 || n <= 0 {
		return n
	}
	a.mu.Lock()
	a.refillLocked()
	floor := a.floorFor(pri)
	granted := 0
	for granted < n && a.tokens >= 1 && a.tokens >= floor {
		a.tokens--
		granted++
	}
	a.mu.Unlock()
	if granted > 0 {
		a.admitted.Add(int64(granted))
	}
	if shed := n - granted; shed > 0 {
		a.shed[pri].Add(int64(shed))
		a.shedAll.Add(int64(shed))
	}
	return granted
}

// floorFor returns the token level a priority must leave in reserve:
// PriLow only draws from the top (1-LowReserve) of the bucket, PriNorm
// from the top (1-LowReserve/2), PriHigh down to empty.
func (a *Admitter) floorFor(pri Priority) float64 {
	switch pri {
	case PriLow:
		return a.cfg.Burst * a.cfg.LowReserve
	case PriNorm:
		return a.cfg.Burst * a.cfg.LowReserve / 2
	default:
		return 0
	}
}

func (a *Admitter) refillLocked() {
	now := a.cfg.Metrics.Now()
	if el := now.Sub(a.last).Seconds(); el > 0 {
		a.tokens += el * a.cfg.Rate
		if a.tokens > a.cfg.Burst {
			a.tokens = a.cfg.Burst
		}
	}
	a.last = now
}

// PriorityFor maps a client infrastructure name to its report priority:
// transient java applets shed first, everything else carries migratable
// computational state.
func PriorityFor(infra string) Priority {
	switch infra {
	case "java", "applet":
		return PriLow
	case "":
		return PriNorm
	default:
		return PriHigh
	}
}
