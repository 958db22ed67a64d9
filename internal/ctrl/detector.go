package ctrl

import (
	"math"
	"sync"
	"time"
)

// DetectorConfig tunes the phi-accrual failure detector.
type DetectorConfig struct {
	// Threshold is the phi level at which a member is declared dead
	// (default 8 — roughly "the odds this silence is ordinary jitter are
	// one in 10^8 given the observed arrival history").
	Threshold float64
	// Window is how many inter-arrival samples feed the model (default 64).
	Window int
	// MinStdDev floors the modelled jitter so a perfectly regular beat
	// stream does not declare death microseconds past its mean interval
	// (default: max(10ms, mean/10)).
	MinStdDev time.Duration
	// Floor is the minimum silence before any death verdict regardless of
	// phi — the flap suppressor (default: 2 observed mean intervals).
	Floor time.Duration
	// Bootstrap is the grace period for members with too few samples to
	// model (default 10s): they stay alive until Bootstrap of silence.
	Bootstrap time.Duration
	// Now is the detector clock (default time.Now). Injectable so the
	// detector runs in virtual time under simgrid and in frozen-clock
	// unit tests.
	Now func() time.Time
}

// phiCap bounds reported suspicion when the survival probability
// underflows to zero.
const phiCap = 100

// memberArrivals is one member's heartbeat arrival history: a ring of
// inter-arrival intervals plus running sums for O(1) mean/variance.
type memberArrivals struct {
	last      time.Time
	intervals []float64 // seconds, ring buffer
	next      int
	filled    int
	sum, sum2 float64
	beats     uint64
}

func (a *memberArrivals) push(iv float64) {
	if a.filled == len(a.intervals) {
		old := a.intervals[a.next]
		a.sum -= old
		a.sum2 -= old * old
	} else {
		a.filled++
	}
	a.intervals[a.next] = iv
	a.sum += iv
	a.sum2 += iv * iv
	a.next = (a.next + 1) % len(a.intervals)
}

func (a *memberArrivals) meanStd() (mean, std float64) {
	if a.filled == 0 {
		return 0, 0
	}
	n := float64(a.filled)
	mean = a.sum / n
	variance := a.sum2/n - mean*mean
	if variance < 0 {
		variance = 0 // floating point drift on near-constant streams
	}
	return mean, math.Sqrt(variance)
}

// Detector is a phi-accrual failure detector (Hayashibara et al.): each
// member's heartbeat inter-arrival times feed a normal model, and the
// suspicion level phi is the negative log of the probability that the
// current silence is ordinary given that history. Unlike a fixed
// timeout, the model adapts — delay-heavy (but drop-free) networks widen
// the modelled jitter instead of producing false positives, while a
// member that beat like clockwork is declared dead quickly.
//
// Flap suppression is structural: phi only ever rises during silence and
// resets on arrival, so a member cannot oscillate dead/alive without new
// evidence, and the Floor forbids death verdicts before a minimum
// silence however confident the model is.
type Detector struct {
	cfg DetectorConfig

	mu      sync.Mutex
	members map[string]*memberArrivals
}

// NewDetector builds a detector with defaults applied.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Bootstrap <= 0 {
		cfg.Bootstrap = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Detector{cfg: cfg, members: make(map[string]*memberArrivals)}
}

// Observe records a heartbeat arrival from id at the detector clock's
// current time.
func (d *Detector) Observe(id string) {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.members[id]
	if a == nil {
		a = &memberArrivals{intervals: make([]float64, d.cfg.Window)}
		d.members[id] = a
	} else if iv := now.Sub(a.last).Seconds(); iv >= 0 {
		a.push(iv)
	}
	a.last = now
	a.beats++
}

// Forget drops a member's history (e.g. after deliberate removal).
func (d *Detector) Forget(id string) {
	d.mu.Lock()
	delete(d.members, id)
	d.mu.Unlock()
}

// Phi returns the current suspicion level for id: 0 when just heard
// from, rising with silence, phiCap when the silence is off the model
// entirely. Unknown members report phiCap.
func (d *Detector) Phi(id string) float64 {
	phi, _ := d.verdict(id)
	return phi
}

// Alive reports the detector's liveness verdict for id.
func (d *Detector) Alive(id string) bool {
	_, alive := d.verdict(id)
	return alive
}

// verdict computes (phi, alive) for one member under the lock.
func (d *Detector) verdict(id string) (float64, bool) {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.members[id]
	if a == nil {
		return phiCap, false
	}
	elapsed := now.Sub(a.last)
	if a.filled < 2 {
		// Too little history to model: bootstrap grace.
		if elapsed <= d.cfg.Bootstrap {
			return 0, true
		}
		return phiCap, false
	}
	mean, std := a.meanStd()
	minStd := math.Max(mean/10, 0.010)
	if d.cfg.MinStdDev > 0 {
		minStd = d.cfg.MinStdDev.Seconds()
	}
	if std < minStd {
		std = minStd
	}
	phi := phiFor(elapsed.Seconds(), mean, std)
	floor := d.cfg.Floor
	if floor <= 0 {
		floor = time.Duration(2 * mean * float64(time.Second))
	}
	alive := phi < d.cfg.Threshold || elapsed < floor
	return phi, alive
}

// phiFor is the suspicion level: -log10 of the probability that an
// inter-arrival gap of at least t seconds occurs under Normal(mean, std).
func phiFor(t, mean, std float64) float64 {
	x := (t - mean) / std
	// Survival function of the standard normal via erfc.
	p := 0.5 * math.Erfc(x/math.Sqrt2)
	if p <= 0 {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi > phiCap {
		return phiCap
	}
	if phi < 0 {
		return 0
	}
	return phi
}

// LastSeen returns the newest heartbeat arrival time for id.
func (d *Detector) LastSeen(id string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.members[id]
	if a == nil {
		return time.Time{}, false
	}
	return a.last, true
}

// Beats returns how many heartbeats id has delivered.
func (d *Detector) Beats(id string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.members[id]
	if a == nil {
		return 0
	}
	return a.beats
}
