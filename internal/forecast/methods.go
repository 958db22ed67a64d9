// Package forecast implements the EveryWare performance forecasting
// services, borrowed and enhanced from the Network Weather Service (NWS).
//
// The NWS methodology (section 2.2 of the paper, and [38]) applies a set
// of lightweight time-series forecasting methods to a measurement stream
// and dynamically chooses the technique that has yielded the greatest
// forecasting accuracy over time. This package provides the forecaster
// battery, the accuracy-tracking selector, a keyed registry for "dynamic
// benchmarking" of arbitrary tagged program events, and the adaptive
// time-out discovery that the paper found crucial to overall program
// stability.
package forecast

import (
	"fmt"
	"math"
)

// Method is one lightweight time-series forecasting technique. A Method
// observes successive measurements via Update and predicts the next value
// via Predict. Implementations are not safe for concurrent use; the
// Selector serializes access.
//
// The Selector relies on two properties: Name is constant for the
// Method's lifetime, and Predict is a pure function of the measurements
// passed to Update since construction. It therefore asks each Method for
// its name once and for its prediction once per measurement, and serves
// every read from those answers.
type Method interface {
	// Name identifies the technique, e.g. "sliding_median_10".
	Name() string
	// Update feeds the next measurement.
	Update(v float64)
	// Predict returns the forecast for the next measurement. ok is false
	// until the method has seen enough data to predict.
	Predict() (v float64, ok bool)
}

// lastValue predicts the most recent measurement.
type lastValue struct {
	v    float64
	seen bool
}

// NewLastValue returns the last-value forecaster.
func NewLastValue() Method { return &lastValue{} }

func (m *lastValue) Name() string { return "last_value" }
func (m *lastValue) Update(v float64) {
	m.v, m.seen = v, true
}
func (m *lastValue) Predict() (float64, bool) { return m.v, m.seen }

// runningMean predicts the mean of the entire history.
type runningMean struct {
	sum float64
	n   int
}

// NewRunningMean returns the running (cumulative) mean forecaster.
func NewRunningMean() Method { return &runningMean{} }

func (m *runningMean) Name() string { return "running_mean" }
func (m *runningMean) Update(v float64) {
	m.sum += v
	m.n++
}
func (m *runningMean) Predict() (float64, bool) {
	if m.n == 0 {
		return 0, false
	}
	return m.sum / float64(m.n), true
}

// window is a fixed-size circular buffer shared by the sliding methods.
type window struct {
	buf  []float64
	next int
	full bool
}

func newWindow(k int) *window { return &window{buf: make([]float64, k)} }

func (w *window) push(v float64) {
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

func (w *window) count() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// sortedWindow is a window that also keeps its live measurements in
// sort.Float64s order (NaN first, then ascending), maintained by one
// removal and one insertion per push instead of a sort per prediction.
type sortedWindow struct {
	window
	sorted []float64
}

func newSortedWindow(k int) *sortedWindow {
	return &sortedWindow{window: window{buf: make([]float64, k)}, sorted: make([]float64, 0, k)}
}

func (w *sortedWindow) push(v float64) {
	if w.full {
		// Remove the evicted sample itself, bit for bit, so the slice stays
		// an exact permutation of the live ones (+0 and -0 compare equal).
		old := w.buf[w.next]
		i := searchSorted(w.sorted, old)
		for math.Float64bits(w.sorted[i]) != math.Float64bits(old) {
			i++
		}
		w.sorted = append(w.sorted[:i], w.sorted[i+1:]...)
	}
	i := searchSorted(w.sorted, v)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = v
	w.window.push(v)
}

// searchSorted returns the first index of s, which is in sort.Float64s
// order, whose value does not sort before v.
func searchSorted(s []float64, v float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x := s[mid]; x < v || (math.IsNaN(x) && !math.IsNaN(v)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slidingMean predicts the mean over the last k measurements.
type slidingMean struct {
	w   *window
	sum float64
	k   int
}

// NewSlidingMean returns a sliding-window mean forecaster over k samples.
func NewSlidingMean(k int) Method {
	return &slidingMean{w: newWindow(k), k: k}
}

func (m *slidingMean) Name() string { return fmt.Sprintf("sliding_mean_%d", m.k) }
func (m *slidingMean) Update(v float64) {
	if m.w.full {
		m.sum -= m.w.buf[m.w.next]
	}
	m.sum += v
	m.w.push(v)
}
func (m *slidingMean) Predict() (float64, bool) {
	n := m.w.count()
	if n == 0 {
		return 0, false
	}
	return m.sum / float64(n), true
}

// slidingMedian predicts the median over the last k measurements. Medians
// are the NWS workhorse for noisy Grid measurements because they resist
// the transient spikes that contention produces.
type slidingMedian struct {
	w *sortedWindow
	k int
}

// NewSlidingMedian returns a sliding-window median forecaster over k
// samples.
func NewSlidingMedian(k int) Method {
	return &slidingMedian{w: newSortedWindow(k), k: k}
}

func (m *slidingMedian) Name() string     { return fmt.Sprintf("sliding_median_%d", m.k) }
func (m *slidingMedian) Update(v float64) { m.w.push(v) }
func (m *slidingMedian) Predict() (float64, bool) {
	s := m.w.sorted
	n := len(s)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// trimmedMean predicts the mean of the central values of the last k
// measurements after discarding the trim fraction at each extreme.
type trimmedMean struct {
	w    *sortedWindow
	k    int
	trim float64
}

// NewTrimmedMean returns a sliding trimmed-mean forecaster over k samples,
// trimming the given fraction (0..0.5) from each tail.
func NewTrimmedMean(k int, trim float64) Method {
	return &trimmedMean{w: newSortedWindow(k), k: k, trim: trim}
}

func (m *trimmedMean) Name() string     { return fmt.Sprintf("trimmed_mean_%d_%g", m.k, m.trim) }
func (m *trimmedMean) Update(v float64) { m.w.push(v) }
func (m *trimmedMean) Predict() (float64, bool) {
	s := m.w.sorted
	n := len(s)
	if n == 0 {
		return 0, false
	}
	cut := int(float64(n) * m.trim)
	lo, hi := cut, n-cut
	if lo >= hi { // degenerate: fall back to median
		lo, hi = n/2, n/2+1
	}
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo), true
}

// expSmooth predicts with exponential smoothing: f' = a*v + (1-a)*f.
type expSmooth struct {
	alpha float64
	f     float64
	seen  bool
}

// NewExpSmooth returns an exponential smoothing forecaster with gain
// alpha in (0,1].
func NewExpSmooth(alpha float64) Method { return &expSmooth{alpha: alpha} }

func (m *expSmooth) Name() string { return fmt.Sprintf("exp_smooth_%g", m.alpha) }
func (m *expSmooth) Update(v float64) {
	if !m.seen {
		m.f, m.seen = v, true
		return
	}
	m.f = m.alpha*v + (1-m.alpha)*m.f
}
func (m *expSmooth) Predict() (float64, bool) { return m.f, m.seen }

// adaptSmooth is exponential smoothing whose gain is nudged up after a
// large error and down after a small one, tracking regime changes faster
// than any fixed alpha.
type adaptSmooth struct {
	alpha float64
	f     float64
	seen  bool
}

// NewAdaptSmooth returns the gain-adaptive exponential smoother.
func NewAdaptSmooth() Method { return &adaptSmooth{alpha: 0.2} }

func (m *adaptSmooth) Name() string { return "adaptive_smooth" }
func (m *adaptSmooth) Update(v float64) {
	if !m.seen {
		m.f, m.seen = v, true
		return
	}
	err := v - m.f
	rel := err
	if m.f != 0 {
		rel = err / m.f
	}
	if rel < 0 {
		rel = -rel
	}
	switch {
	case rel > 0.5 && m.alpha < 0.9:
		m.alpha += 0.1
	case rel < 0.1 && m.alpha > 0.05:
		m.alpha -= 0.05
	}
	m.f = m.alpha*v + (1-m.alpha)*m.f
}
func (m *adaptSmooth) Predict() (float64, bool) { return m.f, m.seen }

// ar1 predicts with a first-order autoregressive model fitted by least
// squares over a sliding window: v' = mean + phi*(v - mean). When the
// series has little serial correlation the model degrades gracefully to
// the window mean.
type ar1 struct {
	k int
	// ordered holds the last k measurements in arrival order for lag-1
	// pairs, in a buffer of capacity k allocated once.
	ordered []float64
}

// NewAR1 returns a windowed AR(1) forecaster over k samples (k >= 4).
func NewAR1(k int) Method {
	if k < 4 {
		k = 4
	}
	return &ar1{k: k, ordered: make([]float64, 0, k)}
}

func (m *ar1) Name() string { return fmt.Sprintf("ar1_%d", m.k) }
func (m *ar1) Update(v float64) {
	if len(m.ordered) < m.k {
		m.ordered = append(m.ordered, v)
		return
	}
	copy(m.ordered, m.ordered[1:])
	m.ordered[m.k-1] = v
}
func (m *ar1) Predict() (float64, bool) {
	n := len(m.ordered)
	if n == 0 {
		return 0, false
	}
	if n < 4 {
		return m.ordered[n-1], true
	}
	mean := 0.0
	for _, v := range m.ordered {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (m.ordered[i] - mean) * (m.ordered[i-1] - mean)
	}
	for _, v := range m.ordered {
		den += (v - mean) * (v - mean)
	}
	phi := 0.0
	if den > 0 {
		phi = num / den
	}
	// Clamp for stability: an explosive fit predicts worse than the mean.
	if phi > 1 {
		phi = 1
	}
	if phi < -1 {
		phi = -1
	}
	p := mean + phi*(m.ordered[n-1]-mean)
	// Keep the prediction inside the window's observed range; an AR(1)
	// extrapolation beyond it is noise on Grid series.
	lo, hi := m.ordered[0], m.ordered[0]
	for _, v := range m.ordered {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if p < lo {
		p = lo
	}
	if p > hi {
		p = hi
	}
	return p, true
}

// DefaultBattery returns the standard EveryWare forecaster set: the same
// mix of mean-, median-, and smoothing-based predictors the NWS runs.
func DefaultBattery() []Method {
	return []Method{
		NewLastValue(),
		NewRunningMean(),
		NewSlidingMean(5),
		NewSlidingMean(10),
		NewSlidingMean(30),
		NewSlidingMedian(5),
		NewSlidingMedian(11),
		NewSlidingMedian(31),
		NewTrimmedMean(10, 0.25),
		NewTrimmedMean(30, 0.25),
		NewExpSmooth(0.05),
		NewExpSmooth(0.1),
		NewExpSmooth(0.25),
		NewExpSmooth(0.5),
		NewExpSmooth(0.75),
		NewAdaptSmooth(),
		NewAR1(20),
	}
}
