// Command bench is the repository's benchmark: four workloads driven
// closed-loop against real daemons in one process, eight bounded
// end-to-end metrics plus a failure count, and a per-layer table from a
// separate traced run. See README.md in this directory for why each
// workload and metric was chosen and how the per-layer metrics are
// expected to move the end-to-end ones.
//
//	go run ./bench                         # the whole suite, untraced then traced
//	go run ./bench -workload ckpt-mem      # one untraced run
//	go run ./bench -workload ckpt-mem -trace 1
//	go run ./bench -check                  # two sets of runs must agree within the bounds
//
// A run prints its tables on standard error and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"everyware/internal/wire"
)

// warmup is how long every phase drives the system before the clock
// starts: pools fill, connections open, the heap reaches its working size
// and the forecasters have a history.
const warmup = 3 * time.Second

// window is the length of the windows a timed phase is cut into.
const window = 250 * time.Millisecond

// benchProcs is the GOMAXPROCS the gated figures are measured at. It does
// not follow the host's core count, or the benchmark would measure the
// host. It is 1, not the issue's 2, because a bound of a tenth cannot be
// held with two: with two Ps every hop of an op wakes the other virtual
// CPU, and how long that takes is the neighbours' doing, all of the time,
// so no window of a run is quiet. Six alternating 26 s runs of report-tcp
// in a disturbed stretch, same binary and seed, op latency by the quiet
// tenth of the windows (see quietLow): 70.4 to 74.1 µs with one P, 94 to
// 120 µs with two. What one P cannot show — overlap between a component
// and the daemons, lock contention, a parallel fan-out — the traced run
// reports, ungated, as driver.procs2_speedup.
const benchProcs = 1

// runConfig is one run of one workload.
type runConfig struct {
	wl      workloadDef
	seed    int64
	trace   bool
	measure time.Duration // the timed phase (split three ways on a traced run)
	warmup  time.Duration
	window  time.Duration
	// setups is how many times an untraced run sets the system up; the
	// median is setup_s, so that one slow bind does not decide it. A
	// set-up with its tear-down is a few milliseconds (gossip-mem: 80 ms).
	setups int
	// forceMem runs TCP workloads over MemTransport, and primeDelay is
	// shorter than gossipPrimeDelay, in the tier-1 smoke test.
	forceMem    bool
	primeDelay  time.Duration
	probeBudget time.Duration
	out         io.Writer // tables and the fingerprint
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		check    = flag.Bool("check", false, "run two sets of -repeat runs and fail if their medians disagree by more than a metric's bound")
		repeat   = flag.Int("repeat", 3, "runs per set in -check mode")
	)
	flag.Parse()
	root, err := findRoot()
	if err == nil {
		err = os.Chdir(root)
	}
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	switch {
	case *check:
		os.Exit(runCheck(spec, *seed, *seconds, *repeat))
	case *workload == "":
		os.Exit(runSuite(spec, *seed, *seconds))
	}
	wl, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := run(spec, runConfig{
		wl: wl, seed: *seed, trace: *trace != 0,
		measure: time.Duration(*seconds * float64(time.Second)),
		warmup:  warmup, window: window,
		setups: 25, primeDelay: gossipPrimeDelay, probeBudget: probeBudget, out: os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// emitter collects a run's metrics against the declared list.
type emitter struct {
	specs  []metricSpec
	values map[string]float64
	err    error
}

func (e *emitter) set(name string, v float64) {
	for _, s := range e.specs {
		if s.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			e.values[name] = v
			return
		}
	}
	if e.err == nil {
		e.err = fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
	}
}

// finish checks every declared metric was emitted and builds the result.
func (e *emitter) finish(attempted, failed int64) (*result, error) {
	if e.err != nil {
		return nil, e.err
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range e.specs {
		v, ok := e.values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// run executes one workload once and returns its result.
func run(spec *benchSpec, cfg runConfig) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	baseGoroutines := runtime.NumGoroutine()
	sc, err := newScratch()
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	transport := cfg.wl.transport
	if cfg.forceMem {
		transport = "mem"
	}
	env := func(n int, wrap func(wire.Transport) wire.Transport) runEnv {
		return runEnv{seed: cfg.seed, wrap: wrap, forceMem: cfg.forceMem, primeDelay: cfg.primeDelay, dir: filepath.Join(sc.tmp, fmt.Sprintf("fleet%d", n))}
	}
	steal0 := readCPUStat()

	if !cfg.trace {
		// Set up several times and keep the last: setup_s is the median.
		var in instance
		var setups []float64
		for i := 0; i < cfg.setups; i++ {
			if in != nil {
				in.Close()
			}
			// Every set-up starts from a collected heap: without this the
			// collector ran in every other one, set-up times alternated
			// between 2.6 and 3.3 ms, and the median sat in either mode.
			runtime.GC()
			t0 := time.Now()
			if in, err = cfg.wl.start(cfg.wl, env(i, nil)); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		ph, failures := timedPhase(in, cfg, cfg.measure, nil)
		// The live heap is the system's, not the driver's: summarize the
		// samples and drop them before looking.
		ws := ph.windows()
		slowest := quantile(ph.latenciesUS(), 1)
		ph.samples = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		in.Close()

		e := &emitter{specs: spec.EndToEnd, values: map[string]float64{}}
		ops := float64(ph.ops())
		rate, p50, p90, cpu := ph.onReference(ws)
		e.set("setup_s", median(setups))
		e.set("ops_per_s", rate)
		e.set("op_us_p50", p50)
		e.set("op_us_p90", p90)
		e.set("cpu_us_per_op", cpu)
		e.set("allocs_per_op", float64(ph.mem1.Mallocs-ph.mem0.Mallocs)/ops)
		e.set("alloc_kb_per_op", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/1024/ops)
		e.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
		res, err := e.finish(ph.ops(), ph.failed+int64(len(failures)))
		if err != nil {
			return nil, err
		}
		fp := newFingerprint(transport, sc.tmpFS, cfg.seed, ph.refSpeed())
		fmt.Fprintln(cfg.out, fp)
		fmt.Fprintf(cfg.out, "%s: untraced, %d set-ups, %d windows of %v, %d samples, window_cv=%.2f%%, disturbed=%.2f%%, slowest op %.1f ms, steal=%.2f%%\n",
			cfg.wl.name, len(setups), len(ws.rate), cfg.window, ph.ops(), cvPct(ws.rate), disturbedPct(ws.rate), slowest/1e3, stealPct(steal0))
		fmt.Fprintf(cfg.out, "%s: as measured, at %.3f of the reference machine's speed: ops_per_s=%.4f op_us_p50=%.4f op_us_p90=%.4f cpu_us_per_op=%.4f\n",
			cfg.wl.name, ph.refSpeed()/refNominal, quietHigh(ws.rate), quietLow(ws.p50), quietLow(ws.p90), quietLow(ws.cpu))
		printMetrics(cfg.out, spec.EndToEnd, res)
		fmt.Fprintf(cfg.out, "  %-34s %14.6f %-6s  [baseline 0; any rise is a regression]\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
		printFailures(cfg.out, ph, failures)
		return res, nil
	}

	// Traced run: an untraced reference phase, the traced phase on a fleet
	// built over the counting transport, an untraced phase with two Ps,
	// each on a fleet of its own, then the probes. End-to-end metrics never
	// come from here.
	part := cfg.measure * 3 / 10
	in, err := cfg.wl.start(cfg.wl, env(0, nil))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	refPhase, refFailures := timedPhase(in, cfg, part, nil)
	in.Close()

	ct := &countingTransport{}
	in, err = cfg.wl.start(cfg.wl, env(1, func(tr wire.Transport) wire.Transport { ct.inner = tr; return ct }))
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr := &tracedPhase{ct: ct, log: newSpanLog(time.Now(), 1<<16), regs: in.Fleet().registries}
	ph, failures := timedPhase(in, cfg, part, tr)
	conns := ct.open.Load()
	end := in.Fleet().end()
	in.Close()
	leaked := waitGoroutines(baseGoroutines)

	in, err = cfg.wl.start(cfg.wl, env(2, nil))
	if err != nil {
		return nil, fmt.Errorf("two-P set-up: %w", err)
	}
	runtime.GOMAXPROCS(2)
	p2Phase, p2Failures := timedPhase(in, cfg, part, nil)
	runtime.GOMAXPROCS(benchProcs)
	in.Close()

	e := &emitter{specs: spec.PerLayer, values: map[string]float64{}}
	wlProbe := cfg.wl
	wlProbe.transport = transport
	if err := runProbes(wlProbe, cfg.seed, sc, cfg.probeBudget, e.set); err != nil {
		return nil, err
	}
	fillLayers(e, refPhase, ph, tr, end)
	p2Rate, _, _, _ := p2Phase.onReference(p2Phase.windows())
	refRate, _, _, _ := refPhase.onReference(refPhase.windows())
	e.set("driver.procs2_speedup", p2Rate/refRate)
	e.set("wire.conns_open", float64(conns))
	e.set("runtime.goroutines_leaked", float64(leaked))
	e.set("machine.ref_mops", ph.refSpeed())
	e.set("machine.steal_pct", stealPct(steal0))
	fillShares(e, ph)
	failures = append(append(failures, refFailures...), p2Failures...)
	res, err := e.finish(ph.ops()+refPhase.ops()+p2Phase.ops(), ph.failed+refPhase.failed+p2Phase.failed+int64(len(failures)))
	if err != nil {
		return nil, err
	}
	fp := newFingerprint(transport, sc.tmpFS, cfg.seed, ph.refSpeed())
	path, err := writeSpans(cfg.wl.name, fp, tr.log)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.out, fp)
	fmt.Fprintf(cfg.out, "%s: traced, %v reference + %v traced + %v with two Ps, %d samples, spans in %s\n",
		cfg.wl.name, part, part, part, ph.ops(), path)
	printMetrics(cfg.out, spec.PerLayer, res)
	printFailures(cfg.out, refPhase, nil)
	printFailures(cfg.out, p2Phase, nil)
	printFailures(cfg.out, ph, failures)
	return res, nil
}

// tracedPhase carries the T, S and M instruments of a traced phase and
// what they read before and after it.
type tracedPhase struct {
	ct   *countingTransport
	log  *spanLog
	regs registries

	t0, t1 transportCounts
	m      registryDelta
}

// timedPhase primes the instance and warms it up, runs the timed phase and
// the instance's oracles, and returns the phase and the violated
// invariants. An instance gets one timed phase.
func timedPhase(in instance, cfg runConfig, dur time.Duration, tr *tracedPhase) (*phase, []error) {
	workers := in.Workers()
	next := make([]uint64, len(workers))
	in.Prime()
	warm := drive(workers, next, cfg.warmup, cfg.window, 1<<10, nil)
	// Size the sample buffer from the warm-up rate, so appending to it
	// never allocates inside the timed phase.
	capHint := int(float64(warm.ops())/cfg.warmup.Seconds()*dur.Seconds()*1.5) + 1024
	in.Fleet().mark()
	var sl *spanLog
	if tr != nil {
		sl = tr.log
		tr.ct.inflightMax.Store(0)
		tr.t0, tr.m.before = tr.ct.counts(), tr.regs.snapshot()
	}
	ph := drive(workers, next, dur, cfg.window, capHint, sl)
	if tr != nil {
		tr.t1, tr.m.after = tr.ct.counts(), tr.regs.snapshot()
	}
	return ph, in.Verify(ph.issued)
}

// waitGoroutines waits for the goroutine count to return to base after
// Close and returns how many are still running beyond it.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-base)
}

func printMetrics(w io.Writer, specs []metricSpec, res *result) {
	for _, s := range specs {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  [%s is better, bound %.0f%%]", s.Better, s.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", s.Name, res.Metrics[s.Name].Value, s.Unit, bound)
	}
}

func printFailures(w io.Writer, ph *phase, failures []error) {
	for _, err := range ph.errs {
		fmt.Fprintln(w, "  FAILED op:", err)
	}
	for _, err := range failures {
		fmt.Fprintln(w, "  FAILED oracle:", err)
	}
}
