package forecast

import (
	"fmt"
	"math"
	"sync"
)

// Forecast is a prediction produced by a Selector, annotated with the
// technique that produced it and that technique's tracked error.
type Forecast struct {
	// Value is the predicted next measurement.
	Value float64
	// Method is the name of the winning technique.
	Method string
	// MSE is the winner's cumulative mean squared error.
	MSE float64
	// MAE is the winner's cumulative mean absolute error.
	MAE float64
	// Samples is the number of measurements observed.
	Samples int
}

// Selector runs a battery of forecasting methods over one measurement
// stream, tracks each method's accumulated prediction error, and forecasts
// with the method that has been most accurate so far — the core of the NWS
// methodology. Predictions are computed once per Update (and once at
// construction), relying on the Method contract: the next measurement is
// scored against them and every read until then is served from them, so a
// Forecast costs a lock and a few loads however often it is asked for.
// Selector is safe for concurrent use.
type Selector struct {
	mu      sync.Mutex
	methods []Method
	names   []string  // methods[i].Name(); shared by same-named batteries, read-only
	pred    []float64 // methods[i]'s prediction of the next measurement
	ok      []bool    // whether methods[i] predicts yet
	sqErr   []float64 // cumulative squared error per method
	absErr  []float64 // cumulative absolute error per method
	bestMSE int       // the predicting method with the least sqErr, or -1
	bestMAE int       // the predicting method with the least absErr, or -1
	scored  int       // updates for which errors were recorded
	samples int
	last    float64
}

// NewSelector returns a Selector over the given battery; if battery is
// empty the DefaultBattery is used.
func NewSelector(battery ...Method) *Selector {
	if len(battery) == 0 {
		battery = DefaultBattery()
	}
	n := len(battery)
	s := &Selector{
		methods: battery,
		names:   internNames(battery),
		pred:    make([]float64, n),
		ok:      make([]bool, n),
		sqErr:   make([]float64, n),
		absErr:  make([]float64, n),
	}
	s.predict()
	return s
}

// Update scores each method's standing prediction against measurement v,
// feeds v to every method, and computes their predictions of the next one.
func (s *Selector) Update(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	anyPredicted := false
	for i, ok := range s.ok {
		if !ok {
			continue
		}
		e := s.pred[i] - v
		s.sqErr[i] += e * e
		if e < 0 {
			e = -e
		}
		s.absErr[i] += e
		anyPredicted = true
	}
	if anyPredicted {
		s.scored++
	}
	for _, m := range s.methods {
		m.Update(v)
	}
	s.samples++
	s.last = v
	s.predict()
}

// predict refreshes the cached predictions and both winners. A winner is
// the first predicting method with the strictly lowest cumulative error,
// so ties go to the earlier method and a NaN error never wins.
func (s *Selector) predict() {
	s.bestMSE, s.bestMAE = -1, -1
	bestSq, bestAbs := math.Inf(1), math.Inf(1)
	for i, m := range s.methods {
		s.pred[i], s.ok[i] = m.Predict()
		if !s.ok[i] {
			continue
		}
		if s.sqErr[i] < bestSq {
			bestSq, s.bestMSE = s.sqErr[i], i
		}
		if s.absErr[i] < bestAbs {
			bestAbs, s.bestMAE = s.absErr[i], i
		}
	}
}

// Samples reports how many measurements the Selector has seen.
func (s *Selector) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Last returns the most recent measurement (0, false before any Update).
func (s *Selector) Last() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.samples > 0
}

// Forecast returns the prediction of the method with the lowest mean
// squared error so far. ok is false until at least one measurement has
// been observed.
func (s *Selector) Forecast() (Forecast, bool) {
	return s.forecast(false)
}

// ForecastMAE is Forecast using mean absolute error as the selection
// criterion; the NWS exposes both because MAE-selected predictors resist
// outliers better.
func (s *Selector) ForecastMAE() (Forecast, bool) {
	return s.forecast(true)
}

func (s *Selector) forecast(useMAE bool) (Forecast, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := s.bestMSE
	if useMAE {
		best = s.bestMAE
	}
	if s.samples == 0 || best < 0 {
		return Forecast{}, false
	}
	n := float64(max(s.scored, 1))
	return Forecast{
		Value:   s.pred[best],
		Method:  s.names[best],
		MSE:     s.sqErr[best] / n,
		MAE:     s.absErr[best] / n,
		Samples: s.samples,
	}, true
}

// Errors returns per-method cumulative (MSE, MAE) pairs keyed by method
// name, for diagnostics and the forecasting benchmarks.
func (s *Selector) Errors() map[string][2]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][2]float64, len(s.methods))
	n := float64(max(s.scored, 1))
	for i, name := range s.names {
		out[name] = [2]float64{s.sqErr[i] / n, s.absErr[i] / n}
	}
	return out
}

// batteryNames holds one names slice per distinct list of method names,
// so the many selectors of a registry share one.
var batteryNames = struct {
	sync.Mutex
	m map[string][]string
}{m: make(map[string][]string)}

// internNames resolves each method's name once and returns the shared,
// read-only slice for a battery with those names.
func internNames(battery []Method) []string {
	names := make([]string, len(battery))
	for i, m := range battery {
		names[i] = m.Name()
	}
	key := fmt.Sprintf("%q", names) // quoted, so distinct lists never share a key
	batteryNames.Lock()
	defer batteryNames.Unlock()
	if shared, ok := batteryNames.m[key]; ok {
		return shared
	}
	batteryNames.m[key] = names
	return names
}
