// Package trace records and renders the time series the paper's
// evaluation section reports: sustained computational rates and host
// counts, averaged over five-minute periods, broken down by
// infrastructure (Figures 2, 3 and 4).
//
// Despite the name, this package has nothing to do with request
// tracing: it is the evaluation's figure/time-series machinery. Causal
// distributed tracing — cross-daemon span trees over the lingua
// franca's trace-context envelope — lives in everyware/internal/dtrace.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// BucketWidth is the averaging window used throughout the paper's
// evaluation: five minutes.
const BucketWidth = 5 * time.Minute

// Series is one time series accumulated into fixed-width buckets.
// Values added within a bucket are summed; Rate() divides by the bucket
// width to produce per-second averages, Mean() divides by the sample
// count.
type Series struct {
	start  time.Time
	width  time.Duration
	sums   []float64
	counts []int64
}

// NewSeries creates a series starting at start with the given bucket
// width (BucketWidth if zero).
func NewSeries(start time.Time, width time.Duration) *Series {
	if width <= 0 {
		width = BucketWidth
	}
	return &Series{start: start, width: width}
}

// bucketFor grows the storage to include the bucket for t and returns its
// index (-1 if t precedes the start).
func (s *Series) bucketFor(t time.Time) int {
	if t.Before(s.start) {
		return -1
	}
	idx := int(t.Sub(s.start) / s.width)
	for len(s.sums) <= idx {
		s.sums = append(s.sums, 0)
		s.counts = append(s.counts, 0)
	}
	return idx
}

// Add accumulates v into the bucket containing t.
func (s *Series) Add(t time.Time, v float64) {
	idx := s.bucketFor(t)
	if idx < 0 {
		return
	}
	s.sums[idx] += v
	s.counts[idx]++
}

// Buckets returns the number of buckets recorded.
func (s *Series) Buckets() int { return len(s.sums) }

// Sum returns the accumulated total in bucket i.
func (s *Series) Sum(i int) float64 {
	if i < 0 || i >= len(s.sums) {
		return 0
	}
	return s.sums[i]
}

// Rate returns bucket i's sum divided by the bucket width in seconds —
// e.g. operations per second averaged over five minutes.
func (s *Series) Rate(i int) float64 {
	return s.Sum(i) / s.width.Seconds()
}

// Mean returns the average of the samples added to bucket i (0 if none) —
// e.g. average live host count over the bucket.
func (s *Series) Mean(i int) float64 {
	if i < 0 || i >= len(s.sums) || s.counts[i] == 0 {
		return 0
	}
	return s.sums[i] / float64(s.counts[i])
}

// Rates returns the per-second rate for every bucket.
func (s *Series) Rates() []float64 {
	out := make([]float64, len(s.sums))
	for i := range out {
		out[i] = s.Rate(i)
	}
	return out
}

// Means returns the per-bucket sample means.
func (s *Series) Means() []float64 {
	out := make([]float64, len(s.sums))
	for i := range out {
		out[i] = s.Mean(i)
	}
	return out
}

// BucketTime returns the start time of bucket i.
func (s *Series) BucketTime(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.width)
}

// Collection groups per-key series sharing an origin and width — one
// series per infrastructure plus a total, as in Figure 3.
type Collection struct {
	start  time.Time
	width  time.Duration
	series map[string]*Series
}

// NewCollection creates an empty collection.
func NewCollection(start time.Time, width time.Duration) *Collection {
	if width <= 0 {
		width = BucketWidth
	}
	return &Collection{start: start, width: width, series: make(map[string]*Series)}
}

// Series returns (creating if needed) the series for key.
func (c *Collection) Series(key string) *Series {
	s, ok := c.series[key]
	if !ok {
		s = NewSeries(c.start, c.width)
		c.series[key] = s
	}
	return s
}

// Keys returns the series names, sorted.
func (c *Collection) Keys() []string {
	out := make([]string, 0, len(c.series))
	for k := range c.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Buckets returns the maximum bucket count across all series.
func (c *Collection) Buckets() int {
	n := 0
	for _, s := range c.series {
		if s.Buckets() > n {
			n = s.Buckets()
		}
	}
	return n
}

// WriteCSV emits "time,key1,key2,..." rows using the chosen per-bucket
// reducer ("rate" or "mean").
func (c *Collection) WriteCSV(w io.Writer, mode string) error {
	keys := c.Keys()
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(keys, ",")); err != nil {
		return err
	}
	n := c.Buckets()
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(keys)+1)
		row = append(row, c.start.Add(time.Duration(i)*c.width).Format("15:04:05"))
		for _, k := range keys {
			s := c.series[k]
			var v float64
			if mode == "mean" {
				v = s.Mean(i)
			} else {
				v = s.Rate(i)
			}
			row = append(row, fmt.Sprintf("%.6g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// CoefficientOfVariation returns stddev/mean of vs (0 for empty or
// zero-mean input) — the uniformity metric for the paper's "consistent"
// Grid criterion.
func CoefficientOfVariation(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(vs))) / mean
}

// RenderASCII draws a crude fixed-height chart of vs for terminal output,
// optionally in log10 scale (Figure 4's presentation). Empty input yields
// an empty string.
func RenderASCII(name string, vs []float64, height int, logScale bool) string {
	if len(vs) == 0 {
		return ""
	}
	if height <= 0 {
		height = 10
	}
	tr := make([]float64, len(vs))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range vs {
		if logScale {
			if v < 1 {
				v = 1
			}
			v = math.Log10(v)
		}
		tr[i] = v
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [min %.3g  max %.3g%s]\n", name, lo, hi, map[bool]string{true: " log10", false: ""}[logScale])
	for row := height - 1; row >= 0; row-- {
		thresh := lo + (hi-lo)*float64(row)/float64(height-1)
		for _, v := range tr {
			if v >= thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Percentile returns the p-quantile (0..1) of vs using linear
// interpolation between order statistics. Empty input returns 0.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary holds descriptive statistics of a series.
type Summary struct {
	Min, Max, Mean, Median, P95 float64
	CV                          float64
	N                           int
}

// Summarize computes descriptive statistics of vs.
func Summarize(vs []float64) Summary {
	s := Summary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	s.Min, s.Max = vs[0], vs[0]
	for _, v := range vs {
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(len(vs))
	s.Median = Percentile(vs, 0.5)
	s.P95 = Percentile(vs, 0.95)
	s.CV = CoefficientOfVariation(vs)
	return s
}
