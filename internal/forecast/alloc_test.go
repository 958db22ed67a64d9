// Race instrumentation allocates, so AllocsPerRun would measure the
// detector; like wire's gate, this one runs in the non-race CI job.

//go:build !race

package forecast

import (
	"testing"
	"time"
)

// TestForecastHotPathAllocs is the forecasting half of the zero-alloc
// gate: every gossip poll and push, and every sched report, reads a
// time-out forecast and records a measurement. Each default method takes
// a turn as the winner, since the winner's name is what a read returns.
func TestForecastHotPathAllocs(t *testing.T) {
	for i, m := range DefaultBattery() {
		name := m.Name()
		t.Run(name, func(t *testing.T) {
			s := selectorWonBy(t, i)
			key := Key{Resource: "srv", Event: "op"}
			r := NewRegistry()
			r.selectors[key] = s
			p := NewTimeoutPolicy(r)
			n := 0
			next := func() float64 { n++; return 1e-3 * float64(1+n%7) }
			for _, c := range []struct {
				op string
				fn func()
			}{
				{"Selector.Forecast", func() { s.Forecast() }},
				{"Selector.ForecastMAE", func() { s.ForecastMAE() }},
				{"Registry.Forecast", func() { r.Forecast(key) }},
				{"TimeoutPolicy.Timeout", func() { p.Timeout(key) }},
				{"Selector.Update", func() { s.Update(next()) }},
				{"Registry.Record", func() { r.Record(key, next()) }},
				{"TimeoutPolicy.Observe", func() { p.Observe(key, time.Duration(next()*float64(time.Second))) }},
			} {
				if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
					t.Errorf("%s allocates %.2f/op with %s winning; the gate is 0", c.op, avg, name)
				}
			}
			// The updates above must not have unseated the winner, or the
			// reads measured a different predictor.
			if f, _ := s.Forecast(); f.Method != name {
				t.Fatalf("winner drifted to %s", f.Method)
			}
		})
	}
}

// selectorWonBy returns a warmed default-battery Selector whose MSE and
// MAE winner is method i by a margin no realistic update overturns.
func selectorWonBy(t *testing.T, i int) *Selector {
	t.Helper()
	s := NewSelector()
	for j := 0; j < 64; j++ {
		s.Update(1e-3 * float64(1+j%7))
	}
	for j := range s.sqErr {
		s.sqErr[j], s.absErr[j] = 1e300, 1e300
	}
	s.sqErr[i], s.absErr[i] = 0, 0
	s.predict()
	want := s.names[i]
	if f, _ := s.Forecast(); f.Method != want {
		t.Fatalf("MSE winner = %s, want %s", f.Method, want)
	}
	if f, _ := s.ForecastMAE(); f.Method != want {
		t.Fatalf("MAE winner = %s, want %s", f.Method, want)
	}
	return s
}
