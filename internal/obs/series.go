// Package obs is the Grid Observatory: a fleet-wide observability plane
// that scrapes MsgTelemetry snapshots from every daemon in the roster,
// keeps fixed-window time series per derived metric, and runs a rule
// engine over them — thresholds, SLO burn rates, and forecast-driven
// anomaly detection reusing the NWS forecasting battery as the
// predictor. Alerts are exported over the wire (MsgObsAlerts), persisted
// to pstate across observatory restarts, and fed to the control plane's
// autoscaler.
package obs

import (
	"sort"
	"strings"
	"sync"

	"everyware/internal/telemetry"
)

// Point is one sample of a derived series, stamped with the scraped
// daemon's own clock (virtual time under simulation).
type Point struct {
	UnixNanos int64
	Value     float64
}

// SeriesKey addresses one derived series: a daemon identity and a
// derived metric name ("sched.queue.depth", "wire.server.handle.t50.ok.p99").
type SeriesKey struct {
	Daemon string
	Metric string
}

// Series is a fixed-capacity ring of points for one derived metric on
// one daemon — the Observatory's storage unit. Old points fall off the
// front; memory per series is bounded by construction.
type Series struct {
	pts  []Point
	head int
	n    int

	// Counter-to-rate derivation state: the last raw cumulative value
	// and its timestamp. A raw value below the last one is a counter
	// reset (daemon restart) and reseeds the baseline without emitting
	// a bogus negative rate.
	lastRaw   float64
	lastNanos int64
	seeded    bool
}

func newSeries(capacity int) *Series {
	return &Series{pts: make([]Point, capacity)}
}

func (s *Series) append(p Point) {
	if s.n < len(s.pts) {
		s.pts[(s.head+s.n)%len(s.pts)] = p
		s.n++
		return
	}
	s.pts[s.head] = p
	s.head = (s.head + 1) % len(s.pts)
}

// Points returns the window oldest-first, copied.
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.pts[(s.head+i)%len(s.pts)]
	}
	return out
}

// Last returns the newest point.
func (s *Series) Last() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	return s.pts[(s.head+s.n-1)%len(s.pts)], true
}

// appendRate folds one raw cumulative counter observation into the
// series as a per-second rate. The first observation (and the first
// after a reset) only seeds the baseline.
func (s *Series) appendRate(nanos int64, raw float64) {
	if s.seeded && raw >= s.lastRaw && nanos > s.lastNanos {
		dt := float64(nanos-s.lastNanos) / 1e9
		s.append(Point{UnixNanos: nanos, Value: (raw - s.lastRaw) / dt})
	}
	s.lastRaw, s.lastNanos, s.seeded = raw, nanos, true
}

// SeriesSet is the Observatory's store: every derived series for every
// scraped daemon, plus the latest exemplars seen on each histogram.
// Safe for concurrent use.
type SeriesSet struct {
	points int // ring capacity per series

	mu        sync.Mutex
	series    map[SeriesKey]*Series
	exemplars map[SeriesKey][]telemetry.Exemplar // keyed by histogram base name
}

// NewSeriesSet returns an empty store keeping up to points samples per
// series (default 128).
func NewSeriesSet(points int) *SeriesSet {
	if points <= 0 {
		points = 128
	}
	return &SeriesSet{
		points:    points,
		series:    make(map[SeriesKey]*Series),
		exemplars: make(map[SeriesKey][]telemetry.Exemplar),
	}
}

func (ss *SeriesSet) at(k SeriesKey) *Series {
	s, ok := ss.series[k]
	if !ok {
		s = newSeries(ss.points)
		ss.series[k] = s
	}
	return s
}

// Ingest folds one scraped snapshot into the store. Derivation rules:
//
//   - counter           -> "<name>.rate" (per-second delta)
//   - gauge, floatgauge -> "<name>" (value as-is)
//   - histogram         -> "<name>.p99" (seconds) and "<name>.rate"
//     (observations per second), exemplars retained per base name
//
// Timestamps come from the snapshot itself, so virtual-time daemons
// produce virtual-time series.
func (ss *SeriesSet) Ingest(daemon string, snap telemetry.Snapshot) {
	nanos := snap.TakenUnixNanos
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, sm := range snap.Samples {
		switch sm.Kind {
		case telemetry.KindCounter:
			ss.at(SeriesKey{daemon, sm.Name + ".rate"}).appendRate(nanos, float64(sm.Value))
		case telemetry.KindGauge:
			ss.at(SeriesKey{daemon, sm.Name}).append(Point{nanos, float64(sm.Value)})
		case telemetry.KindFloatGauge:
			ss.at(SeriesKey{daemon, sm.Name}).append(Point{nanos, sm.Float})
		case telemetry.KindHistogram:
			if sm.Hist == nil {
				continue
			}
			ss.at(SeriesKey{daemon, sm.Name + ".rate"}).appendRate(nanos, float64(sm.Hist.Count))
			if sm.Hist.Count > 0 {
				p99 := sm.Hist.Quantile(0.99).Seconds()
				ss.at(SeriesKey{daemon, sm.Name + ".p99"}).append(Point{nanos, p99})
			}
			if len(sm.Hist.Exemplars) > 0 {
				ex := make([]telemetry.Exemplar, len(sm.Hist.Exemplars))
				copy(ex, sm.Hist.Exemplars)
				ss.exemplars[SeriesKey{daemon, sm.Name}] = ex
			}
		}
	}
}

// Get returns the named series' points, oldest first (nil if absent).
func (ss *SeriesSet) Get(k SeriesKey) []Point {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.series[k]
	if !ok {
		return nil
	}
	return s.Points()
}

// Latest returns the newest point of the named series.
func (ss *SeriesSet) Latest(k SeriesKey) (Point, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.series[k]
	if !ok {
		return Point{}, false
	}
	return s.Last()
}

// Keys returns every stored series key, sorted by daemon then metric.
func (ss *SeriesSet) Keys() []SeriesKey {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SeriesKey, 0, len(ss.series))
	for k := range ss.series {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Daemon != out[j].Daemon {
			return out[i].Daemon < out[j].Daemon
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// SlowestExemplar returns the highest-bucket exemplar for a derived
// series name by stripping the .p99/.rate suffix and consulting the
// exemplar store — how a query answer attaches "the trace behind this
// latency" to a series.
func (ss *SeriesSet) SlowestExemplar(k SeriesKey) (telemetry.Exemplar, bool) {
	base := k.Metric
	for _, suf := range []string{".p99", ".rate"} {
		if strings.HasSuffix(base, suf) {
			base = strings.TrimSuffix(base, suf)
			break
		}
	}
	ss.mu.Lock()
	ex := ss.exemplars[SeriesKey{k.Daemon, base}]
	ss.mu.Unlock()
	best, ok := telemetry.Exemplar{}, false
	for _, e := range ex {
		if !ok || e.Bucket > best.Bucket {
			best, ok = e, true
		}
	}
	return best, ok
}
