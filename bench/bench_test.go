package main

import (
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The benchmark works from the repository root (BENCHMARK.json, the
	// scratch directory, bench/out), as main does.
	root, err := findRoot()
	if err == nil {
		err = os.Chdir(root)
	}
	if err != nil {
		println("bench test:", err.Error())
		os.Exit(2)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONContract checks BENCHMARK.json against the limits the
// regression driver refuses a file for, and against the workload table.
func TestBenchmarkJSONContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented (2 to 8 allowed)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics (1 to 16 allowed)", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics (1 to 128 allowed)", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		unique("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		unique("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
}

// TestSmoke runs every workload for 300 ms over MemTransport, untraced and
// traced, and checks the result object: every metric BENCHMARK.json
// declares is there with its unit and nothing else is, no op or oracle
// failed, and the goroutines are gone once the fleets are closed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // let goroutines of earlier tests finish
	base := runtime.NumGoroutine()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				wl: wl, seed: 1, trace: trace,
				measure: 300 * time.Millisecond, warmup: 100 * time.Millisecond, window: 100 * time.Millisecond,
				setups: 2, forceMem: true, primeDelay: time.Millisecond, probeBudget: time.Millisecond, out: io.Discard,
			}
			res, err := run(spec, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", wl.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			} else if n := res.Metrics["runtime.goroutines_leaked"].Value; n != 0 {
				t.Errorf("%s: %v goroutines still running after Close", wl.name, n)
			}
		}
	}
	if n := waitGoroutines(base); n != 0 {
		t.Errorf("%d goroutines above the baseline after every fleet was closed", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestFrameCounterAcrossWrites(t *testing.T) {
	// Two frames (bodies of 3 and 0 bytes) split at awkward places.
	frame := func(body int) []byte {
		b := make([]byte, 21+body)
		b[20] = byte(body)
		return b
	}
	stream := append(frame(3), frame(0)...)
	c := &countingConn{}
	got := 0
	for _, cut := range [][2]int{{0, 5}, {5, 22}, {22, 30}, {30, len(stream)}} {
		got += c.frames(stream[cut[0]:cut[1]])
	}
	if got != 2 {
		t.Errorf("counted %d frames, want 2", got)
	}
}
