package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint is the environment a result was measured in. It goes with
// every output, because a number without it cannot be compared with
// another: the same commit gives different figures on a different Go
// version, core count or filesystem.
type fingerprint struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Kernel     string  `json:"kernel"`
	Transport  string  `json:"transport"`
	PStateFS   string  `json:"pstate_fs"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	RefMops    float64 `json:"machine_ref_mops"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("env: %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s transport=%s pstate_fs=%s seed=%d commit=%s machine.ref_mops=%.1f",
		f.Go, f.GOMAXPROCS, f.NProc, f.CPU, f.Kernel, f.Transport, f.PStateFS, f.Seed, f.Commit, f.RefMops)
}

func newFingerprint(transport, pstateFS string, seed int64, ref float64) fingerprint {
	return fingerprint{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Transport:  transport,
		PStateFS:   pstateFS,
		Seed:       seed,
		Commit:     gitCommit(),
		RefMops:    ref,
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// the benchmark also runs from exported trees, where it is "unknown".
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD holds the hash itself, or "unknown"
	}
	if h := firstLine(filepath.Join(".git", ref)); h != "unknown" {
		return h
	}
	// The ref may only exist packed.
	data, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if h, name, ok := strings.Cut(line, " "); ok && name == ref {
			return h
		}
	}
	return "unknown"
}

// cpuStat is the machine-wide CPU accounting of /proc/stat, in ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	var st cpuStat
	fields := strings.Fields(firstLine("/proc/stat")) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || err != nil {
			continue
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of the machine's CPU time since then that the
// hypervisor gave to someone else — one of the few signs of a noisy
// neighbour a guest can see.
func stealPct(then cpuStat) float64 {
	now := readCPUStat()
	if now.total <= then.total {
		return 0
	}
	return 100 * (now.steal - then.steal) / (now.total - then.total)
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the one place metric names, units,
// directions and regression bounds are written down; the benchmark reads
// them from it and refuses to emit a metric it does not list.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json, so the benchmark runs from the repository root (the
// driver, `go run ./bench`) and from bench/ (`go test`) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// loadSpec reads BENCHMARK.json from the working directory, which main
// and the tests have made the repository root.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
