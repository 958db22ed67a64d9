package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSelectorEmpty(t *testing.T) {
	s := NewSelector()
	if _, ok := s.Forecast(); ok {
		t.Fatal("forecast before data must fail")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("last before data must fail")
	}
}

func TestSelectorConstantSeries(t *testing.T) {
	s := NewSelector()
	for i := 0; i < 30; i++ {
		s.Update(5)
	}
	f, ok := s.Forecast()
	if !ok || math.Abs(f.Value-5) > 1e-9 {
		t.Fatalf("forecast = %+v, %v", f, ok)
	}
	if f.Samples != 30 {
		t.Fatalf("samples = %d", f.Samples)
	}
}

func TestSelectorPicksAccurateMethodOnNoisySeries(t *testing.T) {
	// Series: constant 100 with occasional huge spikes. Median-family
	// methods should beat last_value, and the selected forecast must stay
	// near 100.
	s := NewSelector()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := 100.0
		if rng.Float64() < 0.1 {
			v = 5000
		}
		s.Update(v)
	}
	f, ok := s.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if f.Value > 700 {
		t.Fatalf("selected forecast %v (%s) dominated by spikes", f.Value, f.Method)
	}
	errs := s.Errors()
	if errs["last_value"][0] <= errs[f.Method][0] {
		t.Fatalf("winner %s (MSE %v) should beat last_value (MSE %v)",
			f.Method, errs[f.Method][0], errs["last_value"][0])
	}
}

func TestSelectorMAESelectionDiffersFromMSE(t *testing.T) {
	// Both criteria must at least produce valid forecasts; on adversarial
	// series they may disagree, which is why the NWS exposes both.
	s := NewSelector()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		s.Update(rng.NormFloat64()*10 + 50)
	}
	fMSE, ok1 := s.Forecast()
	fMAE, ok2 := s.ForecastMAE()
	if !ok1 || !ok2 {
		t.Fatal("missing forecast")
	}
	if math.Abs(fMSE.Value-50) > 15 || math.Abs(fMAE.Value-50) > 15 {
		t.Fatalf("forecasts far from mean: MSE %v, MAE %v", fMSE.Value, fMAE.Value)
	}
}

func TestSelectorWinnerErrorIsMinimal(t *testing.T) {
	s := NewSelector()
	rng := rand.New(rand.NewSource(3))
	v := 100.0
	for i := 0; i < 400; i++ {
		v = 0.9*v + 0.1*(100+rng.NormFloat64()*20)
		s.Update(v)
	}
	f, _ := s.Forecast()
	for name, e := range s.Errors() {
		if e[0] < f.MSE-1e-12 {
			t.Fatalf("method %s has MSE %v below winner %s's %v", name, e[0], f.Method, f.MSE)
		}
	}
}

func TestSelectorConcurrentAccess(t *testing.T) {
	s := NewSelector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.Update(rng.Float64() * 10)
				s.Forecast()
			}
		}(int64(g))
	}
	wg.Wait()
	if s.Samples() != 8*200 {
		t.Fatalf("samples = %d, want 1600", s.Samples())
	}
}

func TestRegistryCreatesAndReusesSelectors(t *testing.T) {
	r := NewRegistry()
	k := Key{Resource: "gossip@a:1", Event: "state_update"}
	r.Record(k, 1)
	r.Record(k, 2)
	if got := r.Selector(k).Samples(); got != 2 {
		t.Fatalf("samples = %d", got)
	}
	if _, ok := r.Forecast(Key{Resource: "other", Event: "x"}); ok {
		t.Fatal("unknown key must have no forecast")
	}
	if f, ok := r.Forecast(k); !ok || f.Samples != 2 {
		t.Fatalf("forecast = %+v, %v", f, ok)
	}
}

func TestRegistryForget(t *testing.T) {
	r := NewRegistry()
	k := Key{Resource: "client-1", Event: "rate"}
	r.Record(k, 1)
	r.Forget(k)
	r.Forget(k) // forgetting an unknown key is a no-op
	if _, ok := r.Forecast(k); ok || len(r.Keys()) != 0 {
		t.Fatalf("forgotten key still present: keys %v", r.Keys())
	}
	r.Record(k, 2)
	if f, ok := r.Forecast(k); !ok || f.Samples != 1 || f.Value != 2 {
		t.Fatalf("record after Forget must start afresh: %+v, %v", f, ok)
	}
}

func TestRegistryKeysSorted(t *testing.T) {
	r := NewRegistry()
	r.Record(Key{"b", "y"}, 1)
	r.Record(Key{"a", "z"}, 1)
	r.Record(Key{"a", "x"}, 1)
	keys := r.Keys()
	want := []Key{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

func TestTimeoutPolicyDefaultBeforeData(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	k := Key{Resource: "s", Event: "m"}
	if got := p.Timeout(k); got != p.Default {
		t.Fatalf("timeout = %v, want default %v", got, p.Default)
	}
}

func TestTimeoutPolicyScalesWithForecast(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 20; i++ {
		p.Observe(k, 200*time.Millisecond)
	}
	got := p.Timeout(k)
	want := 4*200*time.Millisecond + p.Pad
	if got < want-20*time.Millisecond || got > want+20*time.Millisecond {
		t.Fatalf("timeout = %v, want ~%v", got, want)
	}
}

func TestTimeoutPolicyClamps(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 5; i++ {
		p.Observe(k, time.Microsecond)
	}
	if got := p.Timeout(k); got != p.Min {
		t.Fatalf("timeout = %v, want Min %v", got, p.Min)
	}
	k2 := Key{Resource: "s", Event: "slow"}
	for i := 0; i < 5; i++ {
		p.Observe(k2, time.Hour)
	}
	if got := p.Timeout(k2); got != p.Max {
		t.Fatalf("timeout = %v, want Max %v", got, p.Max)
	}
}

func TestTimeoutPolicyAdaptsUpwardAfterTimeouts(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 30; i++ {
		p.Observe(k, 50*time.Millisecond)
	}
	before := p.Timeout(k)
	// Server slows down: observed times (including recorded timeouts) rise.
	for i := 0; i < 30; i++ {
		p.Observe(k, 2*time.Second)
	}
	after := p.Timeout(k)
	if after <= before {
		t.Fatalf("timeout did not adapt upward: %v -> %v", before, after)
	}
}

// refSelector is the Selector as it was before predictions were cached,
// kept verbatim as the reference TestSelectorMatchesReference compares
// against: every read and every update asks every method to Predict.
type refSelector struct {
	methods []Method
	sqErr   []float64
	absErr  []float64
	scored  int
	samples int
}

func newRefSelector(battery []Method) *refSelector {
	return &refSelector{
		methods: battery,
		sqErr:   make([]float64, len(battery)),
		absErr:  make([]float64, len(battery)),
	}
}

func (s *refSelector) Update(v float64) {
	anyPredicted := false
	for i, m := range s.methods {
		if p, ok := m.Predict(); ok {
			e := p - v
			s.sqErr[i] += e * e
			if e < 0 {
				e = -e
			}
			s.absErr[i] += e
			anyPredicted = true
		}
	}
	if anyPredicted {
		s.scored++
	}
	for _, m := range s.methods {
		m.Update(v)
	}
	s.samples++
}

func (s *refSelector) forecast(useMAE bool) (Forecast, bool) {
	if s.samples == 0 {
		return Forecast{}, false
	}
	best := -1
	bestErr := math.Inf(1)
	for i, m := range s.methods {
		if _, ok := m.Predict(); !ok {
			continue
		}
		var e float64
		if useMAE {
			e = s.absErr[i]
		} else {
			e = s.sqErr[i]
		}
		if e < bestErr {
			bestErr = e
			best = i
		}
	}
	if best < 0 {
		return Forecast{}, false
	}
	v, _ := s.methods[best].Predict()
	n := float64(max(s.scored, 1))
	return Forecast{
		Value:   v,
		Method:  s.methods[best].Name(),
		MSE:     s.sqErr[best] / n,
		MAE:     s.absErr[best] / n,
		Samples: s.samples,
	}, true
}

func (s *refSelector) Errors() map[string][2]float64 {
	out := make(map[string][2]float64, len(s.methods))
	n := float64(max(s.scored, 1))
	for i, m := range s.methods {
		out[m.Name()] = [2]float64{s.sqErr[i] / n, s.absErr[i] / n}
	}
	return out
}

// refSortedMethod is the sliding median (trim < 0) or trimmed mean as they
// were before their windows were kept sorted: a sort of a copy per Predict.
type refSortedMethod struct {
	w       *window
	name    string
	trim    float64
	scratch []float64
}

func (m *refSortedMethod) Name() string     { return m.name }
func (m *refSortedMethod) Update(v float64) { m.w.push(v) }
func (m *refSortedMethod) Predict() (float64, bool) {
	n := m.w.count()
	if n == 0 {
		return 0, false
	}
	m.scratch = append(m.scratch[:0], m.w.buf[:n]...)
	sort.Float64s(m.scratch)
	if m.trim < 0 {
		if n%2 == 1 {
			return m.scratch[n/2], true
		}
		return (m.scratch[n/2-1] + m.scratch[n/2]) / 2, true
	}
	cut := int(float64(n) * m.trim)
	lo, hi := cut, n-cut
	if lo >= hi {
		lo, hi = n/2, n/2+1
	}
	sum := 0.0
	for _, v := range m.scratch[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo), true
}

// refAR1 is AR(1) as it was before its fixed buffer: append and reslice.
// Its prediction is the current ar1's over the same arrival-ordered slice.
type refAR1 struct {
	k       int
	ordered []float64
}

func (m *refAR1) Name() string { return fmt.Sprintf("ar1_%d", m.k) }
func (m *refAR1) Update(v float64) {
	m.ordered = append(m.ordered, v)
	if len(m.ordered) > m.k {
		m.ordered = m.ordered[len(m.ordered)-m.k:]
	}
}
func (m *refAR1) Predict() (float64, bool) { return (&ar1{k: m.k, ordered: m.ordered}).Predict() }

// refBattery is DefaultBattery with the rewritten methods replaced by
// their reference forms.
func refBattery() []Method {
	out := DefaultBattery()
	for i, m := range out {
		switch m := m.(type) {
		case *slidingMedian:
			out[i] = &refSortedMethod{w: newWindow(m.k), name: m.Name(), trim: -1}
		case *trimmedMean:
			out[i] = &refSortedMethod{w: newWindow(m.k), name: m.Name(), trim: m.trim}
		case *ar1:
			out[i] = &refAR1{k: m.k}
		}
	}
	return out
}

// priorMean is a running mean seeded with a prior: unlike every default
// method it predicts before its first Update.
type priorMean struct {
	sum float64
	n   int
}

func (m *priorMean) Name() string             { return "prior_mean" }
func (m *priorMean) Update(v float64)         { m.sum += v; m.n++ }
func (m *priorMean) Predict() (float64, bool) { return m.sum / float64(m.n), true }

// referenceSeries returns n measurements of the given kind from seed.
func referenceSeries(kind string, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	level := 1.0
	for i := range out {
		switch kind {
		case "random":
			out[i] = rng.Float64() * 100
		case "ties": // few distinct values, so windows hold many equal samples
			out[i] = float64(rng.Intn(4))
		case "constant-runs":
			if rng.Intn(40) == 0 {
				level = float64(rng.Intn(1000))
			}
			out[i] = level
		case "spikes":
			out[i] = 100
			if rng.Float64() < 0.1 {
				out[i] *= 5000
			}
		case "microseconds": // loopback response times with rare stalls
			out[i] = 7e-6 + rng.Float64()*2e-6
			if rng.Intn(200) == 0 {
				out[i] = 1e-3
			}
		case "non-finite": // one NaN or infinity lands in a finite series
			out[i] = rng.NormFloat64()*5 + 50
			if i == n/2 {
				out[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[seed%3]
			}
		}
	}
	return out
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameForecast(a, b Forecast) bool {
	return sameFloat(a.Value, b.Value) && a.Method == b.Method && sameFloat(a.MSE, b.MSE) &&
		sameFloat(a.MAE, b.MAE) && a.Samples == b.Samples
}

// TestSelectorMatchesReference pins that caching predictions changed only
// their cost: after every update, Forecast, ForecastMAE and Errors are bit
// for bit what the reference selector computes from scratch.
func TestSelectorMatchesReference(t *testing.T) {
	kinds := []string{"random", "ties", "constant-runs", "spikes", "microseconds", "non-finite"}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 4; seed++ {
			for _, prior := range []bool{false, true} {
				got, ref := DefaultBattery(), refBattery()
				if prior {
					got = append(got, &priorMean{sum: 3, n: 1})
					ref = append(ref, &priorMean{sum: 3, n: 1})
				}
				s, r := NewSelector(got...), newRefSelector(ref)
				for i, v := range referenceSeries(kind, seed, 1500) {
					s.Update(v)
					r.Update(v)
					for _, useMAE := range []bool{false, true} {
						gf, gok := s.forecast(useMAE)
						rf, rok := r.forecast(useMAE)
						if gok != rok || !sameForecast(gf, rf) {
							t.Fatalf("%s seed %d prior %v update %d (v=%v) MAE %v: got %+v,%v want %+v,%v",
								kind, seed, prior, i, v, useMAE, gf, gok, rf, rok)
						}
					}
					ge, re := s.Errors(), r.Errors()
					if len(ge) != len(re) {
						t.Fatalf("Errors has %d methods, want %d", len(ge), len(re))
					}
					for name, want := range re {
						if g, ok := ge[name]; !ok || !sameFloat(g[0], want[0]) || !sameFloat(g[1], want[1]) {
							t.Fatalf("%s seed %d prior %v update %d: Errors[%s] = %v, want %v",
								kind, seed, prior, i, name, g, want)
						}
					}
				}
			}
		}
	}
}
