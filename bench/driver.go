package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one completed op: when it ended (ns since the phase began) and
// how long it took.
type sample struct{ end, dur int64 }

// mark closes a window, when the first op ends past the boundary, and
// opens the next one after a burst of the reference loop.
type mark struct {
	n        int           // ops completed
	cpu      time.Duration // processor time used, before the burst
	ref      float64       // the burst's speed, Mops/s
	resume   int64         // when the burst ended, ns since the phase began
	cpuAfter time.Duration // processor time used, after the burst
}

// phase is what one measured stretch of closed-loop driving produced.
type phase struct {
	dur, window time.Duration
	elapsed     time.Duration
	samples     []sample // in completion order
	marks       []mark   // one per full window, after a leading one at the start
	issued      []int64  // ops attempted per worker
	failed      int64
	errs        []error // first few op errors, for the report

	mem0, mem1 runtime.MemStats
}

func (p *phase) ops() int64 {
	var n int64
	for _, v := range p.issued {
		n += v
	}
	return n
}

// maxErrsKept bounds the op errors a phase keeps for display.
const maxErrsKept = 5

// drive runs the workers round-robin from one goroutine — one closed loop,
// one op in flight — for dur. next[w] is worker w's next op index and is
// advanced, so warm-up and timed phases continue one sequence. sl is nil
// on untraced phases.
//
// One driver, not one per core: with two, drivers and daemons saturate
// both of the sandbox's cores, every disturbance from outside the process
// comes straight off the result, and the run-to-run spread of ops_per_s
// on report-tcp is 9% where one driver's is 2%.
func drive(ws []worker, next []uint64, dur, window time.Duration, capHint int, sl *spanLog) *phase {
	p := &phase{
		dur: dur, window: window,
		samples: make([]sample, 0, capHint),
		marks:   make([]mark, 0, int(dur/window)+2),
		issued:  make([]int64, len(ws)),
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	p.mark(start, processCPU())
	deadline := start.Add(dur)
	boundary := start.Add(window)
	for w := 0; ; w = (w + 1) % len(ws) {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		err := ws[w](next[w], sl)
		t1 := time.Now()
		next[w]++
		p.issued[w]++
		p.samples = append(p.samples, sample{end: int64(t1.Sub(start)), dur: int64(t1.Sub(t0))})
		if !t1.Before(boundary) {
			p.mark(start, processCPU())
			for !t1.Before(boundary) {
				boundary = boundary.Add(window)
			}
		}
		if err != nil {
			p.failed++
			if len(p.errs) < maxErrsKept {
				p.errs = append(p.errs, err)
			}
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	return p
}

// mark closes the current window and runs the reference burst that
// separates it from the next.
func (p *phase) mark(start time.Time, cpu time.Duration) {
	m := mark{n: len(p.samples), cpu: cpu, ref: refMops(refBurst)}
	m.resume, m.cpuAfter = int64(time.Since(start)), processCPU()
	p.marks = append(p.marks, m)
}

// processCPU is user+system time of the whole process — clients and
// daemons alike, since they share it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStats holds one entry per full window of a phase: the rate of
// completed ops, the median and 90th-percentile op latency, and the
// processor time per op.
type windowStats struct {
	rate, p50, p90, cpu []float64
}

func (p *phase) windows() windowStats {
	var ws windowStats
	for k := 1; k < len(p.marks); k++ {
		a, b := p.marks[k-1], p.marks[k]
		n := float64(b.n - a.n)
		durs := make([]float64, 0, b.n-a.n)
		for _, s := range p.samples[a.n:b.n] {
			durs = append(durs, float64(s.dur)/1e3)
		}
		sort.Float64s(durs)
		// The window's rate is its ops over the span they actually took
		// (end of the burst to last completion), so the figure is not
		// quantized to whole ops per window.
		ws.rate = append(ws.rate, n/(float64(p.samples[b.n-1].end-a.resume)/1e9))
		ws.p50 = append(ws.p50, quantile(durs, 0.50))
		ws.p90 = append(ws.p90, quantile(durs, 0.90))
		ws.cpu = append(ws.cpu, float64(b.cpu-a.cpuAfter)/1e3/n)
	}
	return ws
}

// quietShare is the share of a phase's windows the end-to-end time metrics
// are read from: the least disturbed tenth.
const quietShare = 0.10

// quietLow and quietHigh summarize a lower-is-better and a
// higher-is-better per-window figure by its value in the least disturbed
// tenth of the windows — the 10th and the 90th percentile over windows.
//
// Not the median: the sandbox is a virtual machine with neighbours, and
// what they do to a process is one-sided (it only ever gets slower) and
// comes in stretches of seconds to minutes. In one such stretch six 26 s
// runs of report-tcp, same binary and seed, read 72 to 112 µs by the
// median over one-second windows (quartile spread 39%) and 70.4 to 74.1 µs
// by the 10th percentile over 250 ms windows (3.5%); in a calm hour the two
// agree to 2% and spread alike (1.1% and 1.4%). The quiet tenth measures
// the program, the median measures the program plus the neighbours. What
// it cannot see is a cost that falls on fewer than nine windows in ten —
// with 250 ms windows, something rarer than four times a second; the
// garbage collector runs more often than that on every workload, and
// driver.window_cv_pct and driver.disturbed_pct in the traced run say how
// far the median sat from the quiet tenth.
func quietLow(v []float64) float64  { return quantile(sortedCopy(v), quietShare) }
func quietHigh(v []float64) float64 { return quantile(sortedCopy(v), 1-quietShare) }

// latenciesUS returns every op latency of the phase in µs, sorted.
func (p *phase) latenciesUS() []float64 {
	out := make([]float64, len(p.samples))
	for i, v := range p.samples {
		out[i] = float64(v.dur) / 1e3
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// sortedCopy returns a sorted copy of s.
func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// disturbedPct is how far the median window's rate fell short of the quiet
// tenth's, in percent: what the machine took out of a typical window.
func disturbedPct(rate []float64) float64 {
	quiet := quietHigh(rate)
	if quiet == 0 {
		return 0
	}
	return 100 * (quiet - median(rate)) / quiet
}

// cvPct is the coefficient of variation in percent.
func cvPct(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return 100 * math.Sqrt(ss/float64(len(v)-1)) / mean
}

// refSink keeps the reference loop's result live.
var refSink uint64

const (
	// refBurst is how long the reference loop runs between two windows:
	// under 1% of the run.
	refBurst = 2 * time.Millisecond
	// refNominal is the reference loop's speed, in Mops/s, on the sandbox
	// when nothing disturbs it.
	refNominal = 550.0
)

// refMops times a fixed integer loop for d and returns millions of
// iterations per second. It touches no memory and calls nothing, so its
// speed is the processor's: how fast the core is clocked and how much of
// it a neighbour leaves.
func refMops(d time.Duration) float64 {
	const chunk = 1 << 12
	a, b := uint64(88172645463325252), uint64(2463534242)
	iters := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			a ^= a << 13
			b ^= b << 13
			a ^= a >> 7
			b ^= b >> 7
			a ^= a << 17
			b ^= b << 17
		}
		iters += chunk
	}
	refSink += a ^ b
	return float64(iters) / time.Since(start).Seconds() / 1e6
}

// refSpeed is the reference loop's speed over the phase, in Mops/s: that
// of the least disturbed tenth of its bursts, like the metrics it scales.
func (p *phase) refSpeed() float64 {
	ref := make([]float64, len(p.marks))
	for i, m := range p.marks {
		ref[i] = m.ref
	}
	return quietHigh(ref)
}

// onReference expresses a phase's time metrics on the reference machine —
// the sandbox with refNominal reference speed — instead of on the machine
// as it happened to be: times are multiplied and rates divided by the
// phase's reference speed over the nominal one.
//
// The host clocks its cores by what all of its guests are doing, and every
// workload follows: over forty minutes of a busy hour (43 runs of 10 s per
// workload) the reference loop ran at 458 to 556 Mops/s; op latency by the
// quiet tenth ranged over 22% (report-tcp) to 50% (ckpt-mem) with a
// quartile spread of 6.7 to 13.3%, tracked the loop with r = 0.89 to 0.93
// at a slope of 0.8 to 1.35, and on the reference machine spread 3.0 to
// 4.8%. The loop is the benchmark's own and runs no repository code, so a
// change to the repository cannot move it.
func (p *phase) onReference(ws windowStats) (rate, p50, p90, cpu float64) {
	speed := p.refSpeed() / refNominal
	return quietHigh(ws.rate) / speed, quietLow(ws.p50) * speed, quietLow(ws.p90) * speed, quietLow(ws.cpu) * speed
}
