package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(1998, 11, 11, 23, 36, 56, 0, time.UTC)

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(t0, 5*time.Minute)
	s.Add(t0, 100)
	s.Add(t0.Add(time.Minute), 200)
	s.Add(t0.Add(6*time.Minute), 50)
	if s.Buckets() != 2 {
		t.Fatalf("buckets = %d", s.Buckets())
	}
	if s.Sum(0) != 300 || s.Sum(1) != 50 {
		t.Fatalf("sums = %v, %v", s.Sum(0), s.Sum(1))
	}
	if got := s.Rate(0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("rate = %v, want 1 op/s", got) // 300 ops over 300 s
	}
	if got := s.Mean(0); got != 150 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSeriesIgnoresPreStart(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	s.Add(t0.Add(-time.Hour), 99)
	if s.Buckets() != 0 {
		t.Fatal("pre-start sample must be dropped")
	}
}

func TestSeriesSparseBucketsAreZero(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	s.Add(t0.Add(10*time.Minute), 5)
	if s.Buckets() != 11 {
		t.Fatalf("buckets = %d", s.Buckets())
	}
	for i := 0; i < 10; i++ {
		if s.Sum(i) != 0 || s.Mean(i) != 0 {
			t.Fatalf("bucket %d not zero", i)
		}
	}
	if s.BucketTime(10) != t0.Add(10*time.Minute) {
		t.Fatal("bucket time wrong")
	}
}

func TestSeriesOutOfRangeAccessors(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	if s.Sum(-1) != 0 || s.Sum(5) != 0 || s.Mean(-1) != 0 || s.Rate(99) != 0 {
		t.Fatal("out-of-range access must read zero")
	}
}

func TestCollectionCSV(t *testing.T) {
	c := NewCollection(t0, 5*time.Minute)
	c.Series("condor").Add(t0, 300)
	c.Series("nt").Add(t0, 600)
	c.Series("nt").Add(t0.Add(5*time.Minute), 900)
	var sb strings.Builder
	if err := c.WriteCSV(&sb, "rate"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "time,condor,nt" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "23:36:56,1,2") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestQuickSeriesTotalPreserved(t *testing.T) {
	// Property: the sum over all buckets equals the sum of added values.
	f := func(raw []uint16) bool {
		s := NewSeries(t0, time.Minute)
		want := 0.0
		for i, v := range raw {
			s.Add(t0.Add(time.Duration(i%120)*time.Second*30), float64(v))
			want += float64(v)
		}
		got := 0.0
		for i := 0; i < s.Buckets(); i++ {
			got += s.Sum(i)
		}
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5, 5}); cv != 0 {
		t.Fatalf("constant series cv = %v", cv)
	}
	if cv := CoefficientOfVariation(nil); cv != 0 {
		t.Fatal("empty cv must be 0")
	}
	cv := CoefficientOfVariation([]float64{1, 3})
	if math.Abs(cv-0.5) > 1e-9 { // mean 2, stddev 1
		t.Fatalf("cv = %v, want 0.5", cv)
	}
	noisy := CoefficientOfVariation([]float64{0, 10, 0, 10})
	smooth := CoefficientOfVariation([]float64{5, 6, 5, 6})
	if noisy <= smooth {
		t.Fatal("noisier series must have higher cv")
	}
}

func TestRenderASCII(t *testing.T) {
	out := RenderASCII("test", []float64{1, 2, 3, 4}, 4, false)
	if !strings.Contains(out, "test") || !strings.Contains(out, "#") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("lines = %d", len(lines))
	}
	if RenderASCII("empty", nil, 4, false) != "" {
		t.Fatal("empty input must render empty")
	}
	logOut := RenderASCII("log", []float64{1e3, 1e6, 1e9}, 3, true)
	if !strings.Contains(logOut, "log10") {
		t.Fatalf("log render missing scale note: %q", logOut)
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	out := RenderASCII("const", []float64{7, 7, 7}, 3, false)
	if out == "" {
		t.Fatal("constant series must render")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := Percentile(vs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(vs, 1); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(vs, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Input must not be mutated.
	if vs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P95 < 4.5 || s.P95 > 5 {
		t.Fatalf("p95 = %v", s.P95)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		pa, pb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(vs, pa) <= Percentile(vs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
