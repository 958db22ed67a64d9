package forecast

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func feed(m Method, vs ...float64) {
	for _, v := range vs {
		m.Update(v)
	}
}

func TestLastValue(t *testing.T) {
	m := NewLastValue()
	if _, ok := m.Predict(); ok {
		t.Fatal("predict before data must fail")
	}
	feed(m, 1, 2, 3)
	if v, ok := m.Predict(); !ok || v != 3 {
		t.Fatalf("got %v,%v want 3,true", v, ok)
	}
}

func TestRunningMean(t *testing.T) {
	m := NewRunningMean()
	feed(m, 2, 4, 6, 8)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMeanWindowEviction(t *testing.T) {
	m := NewSlidingMean(3)
	feed(m, 100, 1, 2, 3) // 100 must fall out of the window
	if v, _ := m.Predict(); v != 2 {
		t.Fatalf("got %v want 2", v)
	}
}

func TestSlidingMeanPartialWindow(t *testing.T) {
	m := NewSlidingMean(10)
	feed(m, 4, 6)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMedianOdd(t *testing.T) {
	m := NewSlidingMedian(5)
	feed(m, 9, 1, 5, 3, 7)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMedianEvenCount(t *testing.T) {
	m := NewSlidingMedian(5)
	feed(m, 1, 3, 5, 7)
	if v, _ := m.Predict(); v != 4 {
		t.Fatalf("got %v want 4", v)
	}
}

func TestSlidingMedianResistsSpike(t *testing.T) {
	m := NewSlidingMedian(5)
	feed(m, 10, 10, 1e9, 10, 10)
	if v, _ := m.Predict(); v != 10 {
		t.Fatalf("median with spike = %v, want 10", v)
	}
}

func TestTrimmedMeanDiscardsTails(t *testing.T) {
	m := NewTrimmedMean(4, 0.25)
	feed(m, 0, 10, 10, 1000)
	if v, _ := m.Predict(); v != 10 {
		t.Fatalf("got %v want 10", v)
	}
}

func TestTrimmedMeanDegenerateTrim(t *testing.T) {
	// Trim so aggressive that the slice empties: must fall back sanely.
	m := NewTrimmedMean(2, 0.5)
	feed(m, 1, 3)
	if v, ok := m.Predict(); !ok || math.IsNaN(v) {
		t.Fatalf("got %v,%v want finite value", v, ok)
	}
}

func TestExpSmoothConvergesToConstant(t *testing.T) {
	m := NewExpSmooth(0.5)
	for i := 0; i < 50; i++ {
		m.Update(42)
	}
	if v, _ := m.Predict(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("got %v want 42", v)
	}
}

func TestExpSmoothFirstValueSeeds(t *testing.T) {
	m := NewExpSmooth(0.1)
	m.Update(7)
	if v, _ := m.Predict(); v != 7 {
		t.Fatalf("got %v want 7", v)
	}
}

func TestAdaptSmoothTracksRegimeChange(t *testing.T) {
	fixed := NewExpSmooth(0.05)
	adapt := NewAdaptSmooth()
	// Long stable regime at 10, then a jump to 100.
	for i := 0; i < 100; i++ {
		fixed.Update(10)
		adapt.Update(10)
	}
	for i := 0; i < 5; i++ {
		fixed.Update(100)
		adapt.Update(100)
	}
	fv, _ := fixed.Predict()
	av, _ := adapt.Predict()
	if math.Abs(av-100) >= math.Abs(fv-100) {
		t.Fatalf("adaptive smoother (%v) should track the jump faster than alpha=0.05 (%v)", av, fv)
	}
}

func TestMethodNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range DefaultBattery() {
		if seen[m.Name()] {
			t.Fatalf("duplicate method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("battery too small: %d methods", len(seen))
	}
}

// Property: every battery method's prediction lies within the range of
// observed values (all are averages/selections of history).
func TestQuickPredictionsWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float rounding noise at 1e300.
			vs = append(vs, math.Mod(v, 1e6))
		}
		if len(vs) == 0 {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		const eps = 1e-6
		for _, m := range DefaultBattery() {
			feed(m, vs...)
			p, ok := m.Predict()
			if !ok {
				return false
			}
			if p < lo-eps-math.Abs(lo)*1e-9 || p > hi+eps+math.Abs(hi)*1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sliding window methods depend only on the last k values.
func TestQuickSlidingWindowForgetsOldData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		prefix := make([]float64, rng.Intn(20))
		for i := range prefix {
			prefix[i] = rng.Float64() * 100
		}
		tail := make([]float64, k)
		for i := range tail {
			tail[i] = rng.Float64() * 100
		}
		for _, mk := range []func() Method{
			func() Method { return NewSlidingMean(k) },
			func() Method { return NewSlidingMedian(k) },
		} {
			a, b := mk(), mk()
			feed(a, prefix...)
			feed(a, tail...)
			feed(b, tail...)
			pa, _ := a.Predict()
			pb, _ := b.Predict()
			if math.Abs(pa-pb) > 1e-6 {
				t.Fatalf("k=%d: window retained old data: %v vs %v", k, pa, pb)
			}
		}
	}
}

// FuzzSortedWindow pushes arbitrary measurements into a sortedWindow of
// size 1–40 and checks, after every push, that its sorted slice is
// sort.Float64s of the live samples (NaN first) and holds exactly those
// samples, bit for bit. Each input byte is one push: below 240 a small
// integer (dense ties), 240–243 NaN, +Inf, -Inf, -0, and above that the
// next eight bytes as raw float64 bits.
func FuzzSortedWindow(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0), []byte{0, 243, 0, 243, 240, 1})
	f.Add(uint8(9), []byte{240, 3, 241, 3, 242, 240, 3, 3, 243, 0, 5, 240, 241})
	f.Add(uint8(30), []byte{255, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 7, 255, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, k uint8, in []byte) {
		w := newSortedWindow(1 + int(k)%40)
		for len(in) > 0 {
			b := in[0]
			in = in[1:]
			var v float64
			switch {
			case b < 240:
				v = float64(int(b%16) - 8)
			case b == 240:
				v = math.NaN()
			case b == 241:
				v = math.Inf(1)
			case b == 242:
				v = math.Inf(-1)
			case b == 243:
				v = math.Copysign(0, -1)
			case len(in) >= 8:
				v = math.Float64frombits(binary.LittleEndian.Uint64(in))
				in = in[8:]
			default:
				return
			}
			w.push(v)

			live := w.buf[:w.count()]
			want := append([]float64(nil), live...)
			sort.Float64s(want)
			if len(w.sorted) != len(want) {
				t.Fatalf("sorted holds %d samples, window %d", len(w.sorted), len(want))
			}
			for i := range want {
				// sort.Float64s leaves the order of equal values (+0 and -0,
				// NaNs with different payloads) unspecified; compare values.
				g := w.sorted[i]
				if g != want[i] && !(math.IsNaN(g) && math.IsNaN(want[i])) {
					t.Fatalf("sorted[%d] = %v, want %v (sorted %v, live %v)", i, g, want[i], w.sorted, live)
				}
			}
			if !sameBitMultiset(w.sorted, live) {
				t.Fatalf("sorted %v is not a permutation of the live samples %v", w.sorted, live)
			}
		}
	})
}

func sameBitMultiset(a, b []float64) bool {
	bits := func(s []float64) []uint64 {
		out := make([]uint64, len(s))
		for i, v := range s {
			out[i] = math.Float64bits(v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if len(a) != len(b) {
		return false
	}
	x, y := bits(a), bits(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestAR1TracksAutocorrelatedSeries(t *testing.T) {
	// Strongly autocorrelated series: v[i] = 0.9*v[i-1] + noise. AR(1)
	// should beat the plain window mean.
	rng := rand.New(rand.NewSource(21))
	ar := NewAR1(30)
	mean := NewSlidingMean(30)
	v := 50.0
	var arErr, meanErr float64
	for i := 0; i < 500; i++ {
		if p, ok := ar.Predict(); ok {
			arErr += math.Abs(p - v)
		}
		if p, ok := mean.Predict(); ok {
			meanErr += math.Abs(p - v)
		}
		ar.Update(v)
		mean.Update(v)
		v = 0.9*v + rng.NormFloat64()*3
	}
	if arErr >= meanErr {
		t.Fatalf("AR(1) MAE %v should beat window-mean MAE %v on an AR series", arErr, meanErr)
	}
}

func TestAR1SmallSamples(t *testing.T) {
	m := NewAR1(10)
	if _, ok := m.Predict(); ok {
		t.Fatal("no data must not predict")
	}
	m.Update(5)
	if p, ok := m.Predict(); !ok || p != 5 {
		t.Fatalf("single sample predict = %v, %v", p, ok)
	}
	m.Update(5)
	m.Update(5)
	m.Update(5)
	if p, ok := m.Predict(); !ok || math.Abs(p-5) > 1e-9 {
		t.Fatalf("constant series predict = %v, %v", p, ok)
	}
}

func TestAR1MinimumWindow(t *testing.T) {
	m := NewAR1(1) // must normalize to >= 4
	for i := 0; i < 10; i++ {
		m.Update(float64(i))
	}
	if _, ok := m.Predict(); !ok {
		t.Fatal("predict failed")
	}
}
