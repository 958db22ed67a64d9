package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Every run of the suite is a fresh process started from this binary: a
// run then sees the heap, the pools and the goroutines of no earlier run,
// which is also how the regression driver runs it.

// runChild runs one workload once in a child process and parses the JSON
// object it prints last. The child's tables go to our standard error.
func runChild(workload string, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run() // exit 1 still comes with a result: parse before judging
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result on the last line of output: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload untraced, then traced, and returns the
// process exit code: non-zero when any oracle failed.
func runSuite(spec *benchSpec, seed int64, seconds float64) int {
	code := 0
	for _, trace := range []int{0, 1} {
		for _, wl := range workloads {
			res, err := runChild(wl.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops or oracles failed\n", wl.name, res.Failed, res.Attempted)
				code = 1
			}
		}
	}
	return code
}

// checkSets is how many independent sets -check compares.
const checkSets = 2

// runCheck is the noise discipline: it measures the same commit in two
// sets of repeat runs (a different seed each run, as the regression driver
// does) and fails when, for any end-to-end metric on any workload, the
// sets' medians disagree, or one set's quartiles spread, by more than the
// metric's bound. A metric that fails here is fixed at the source or
// demoted to the per-layer table, never given a wider bound.
// driver.window_cv_pct and machine.ref_mops come from one traced run per
// set, so that what disagreement remains can be put down to the machine.
func runCheck(spec *benchSpec, seed int64, seconds float64, repeat int) int {
	code := 0
	for _, wl := range workloads {
		// values[set][metric] holds one value per run.
		var values [checkSets]map[string][]float64
		var machine [checkSets]string
		for set := range values {
			values[set] = map[string][]float64{}
			for r := 0; r < repeat; r++ {
				res, err := runChild(wl.name, seed+int64(set*repeat+r), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Printf("%s: set %d run %d: %d of %d ops or oracles failed\n", wl.name, set+1, r+1, res.Failed, res.Attempted)
					code = 1
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
			res, err := runChild(wl.name, seed+int64(set), seconds, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			machine[set] = fmt.Sprintf("driver.window_cv_pct=%.2f machine.ref_mops=%.1f",
				res.Metrics["driver.window_cv_pct"].Value, res.Metrics["machine.ref_mops"].Value)
		}
		fmt.Printf("%s (%d runs per set)\n", wl.name, repeat)
		for set, m := range machine {
			fmt.Printf("  set %d: %s\n", set+1, m)
		}
		fmt.Printf("  %-18s %-6s %38s %38s %9s %9s\n", "metric", "bound", "set 1 median [q1, q3]", "set 2 median [q1, q3]", "disagree", "spread")
		for _, ms := range spec.EndToEnd {
			var med, q1, q3 [checkSets]float64
			spread := 0.0
			for set := range values {
				q1[set], med[set], q3[set] = quartiles(values[set][ms.Name])
				spread = math.Max(spread, (q3[set]-q1[set])/med[set])
			}
			// Worse means lower for a higher-is-better metric.
			worse := (med[1] - med[0]) / med[0]
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			// setup_s is exempt from the spread rule (the driver exempts
			// it too): it has few samples per run and the widest bound.
			if math.Abs(worse) > ms.Bound || (spread > ms.Bound && ms.Name != "setup_s") {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-18s %-6.2f %14.4f [%10.4f, %10.4f] %14.4f [%10.4f, %10.4f] %8.2fx %8.2fx%s\n",
				ms.Name, ms.Bound, med[0], q1[0], q3[0], med[1], q1[1], q3[1],
				math.Abs(worse)/ms.Bound, spread/ms.Bound, verdict)
		}
	}
	return code
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) — the one the
// regression driver uses — so -check and the driver agree on a spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, "exclusive" method
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
