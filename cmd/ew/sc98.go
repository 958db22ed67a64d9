package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/faults"
	"everyware/internal/grid"
	"everyware/internal/scale"
	"everyware/internal/scale/sweep"
	"everyware/internal/telemetry"
	"everyware/internal/trace"
	"everyware/internal/wire"
)

// sc98Cmd replays the SC98 High-Performance Computing Challenge
// evaluation window and regenerates every table and figure from the
// paper's results section (Figures 2, 3a-c, 4a-c, the section 5.6 Java
// measurements, and the qualitative claims reproduced as ablations):
//
//	ew sc98 -fig 2                 # Figure 2: sustained total rate
//	ew sc98 -fig 3a -csv           # Figure 3a as CSV
//	ew sc98 -fig 4                 # Figure 4: log-scale series
//	ew sc98 -fig java              # section 5.6 JIT vs interpreted
//	ew sc98 -fig timeouts          # dynamic vs static time-out ablation
//	ew sc98 -fig condor            # scheduler placement ablation
//	ew sc98 -fig consistency       # the "consistent" Grid criterion
//	ew sc98 -fig chaos             # mini SC98 over real daemons + fault injection
//	ew sc98 -fig chaos -mem        # same scenario over the in-memory transport
//	ew sc98 -fig telemetry         # mini SC98 over real daemons, per-daemon metrics table
//	ew sc98 -fig scale             # web-scale sweep: sharded scheduling under virtual time
//	ew sc98 -fig all               # everything
func sc98Cmd(fs *flag.FlagSet) action {
	fig := fs.String("fig", "all", "2 | 3a | 3b | 3c | 4 | java | timeouts | condor | consistency | chaos | telemetry | scale | all")
	seed := fs.Int64("seed", 1998, "scenario seed")
	duration := fs.Duration("duration", grid.SC98Duration, "window length")
	csv := fs.Bool("csv", false, "emit CSV instead of charts")
	out := fs.String("out", "", "also export all figure CSVs to this directory")
	drop := fs.Float64("chaos-drop", 0.05, "chaos: per-message drop probability")
	dup := fs.Float64("chaos-dup", 0.02, "chaos: per-message duplicate probability")
	reset := fs.Float64("chaos-reset", 0.03, "chaos: per-message connection-reset probability")
	torn := fs.Float64("chaos-torn", 0.02, "chaos: per-message torn-write probability")
	delay := fs.Float64("chaos-delay", 0.03, "chaos: per-message delay probability")
	mem := fs.Bool("mem", false, "chaos/telemetry: run the daemons over the in-memory wire transport (no TCP sockets)")
	scaleClients := fs.Int("scale-clients", 1_000_000, "scale: largest client population in the sweep")
	return func(_ context.Context, w io.Writer, _ []string) int {
		var tr wire.Transport
		if *mem {
			tr = wire.NewMemTransport()
		}

		needReplay := map[string]bool{"2": true, "3a": true, "3b": true, "3c": true, "4": true,
			"consistency": true, "all": true}
		var res *grid.Result
		if needReplay[*fig] {
			fmt.Fprintf(os.Stderr, "ew sc98: replaying the 12-hour SC98 window (seed %d)...\n", *seed)
			res = grid.RunSC98(grid.ScenarioConfig{Seed: *seed, Duration: *duration, AdaptiveTimeouts: true})
			if *out != "" {
				if err := res.ExportFigureData(*out); err != nil {
					return fail(fs, fmt.Errorf("export: %w", err))
				}
				fmt.Fprintf(os.Stderr, "ew sc98: figure CSVs written to %s\n", *out)
			}
		}

		switch *fig {
		case "2":
			figure2(w, res, *csv)
		case "3a":
			figure3a(w, res, *csv, false)
		case "3b":
			figure3b(w, res, *csv, false)
		case "3c":
			figure2(w, res, *csv) // Figure 3c reproduces Figure 2 for comparison
		case "4":
			figure3a(w, res, *csv, true)
			figure3b(w, res, *csv, true)
			figure4c(w, res)
		case "java":
			javaTable(w)
		case "timeouts":
			timeoutAblation(w, *seed)
		case "condor":
			condorAblation(w, *seed)
		case "consistency":
			consistency(w, res)
		case "chaos":
			chaosRun(w, *seed, faults.Config{
				Drop: *drop, Dup: *dup, Reset: *reset, Torn: *torn,
				Delay: *delay, MaxDelay: 10 * time.Millisecond,
			}, tr)
		case "telemetry":
			telemetryFigure(w, *seed, tr)
		case "scale":
			scaleFigure(w, *seed, *scaleClients)
		case "all":
			figure2(w, res, *csv)
			figure3a(w, res, *csv, false)
			figure3b(w, res, *csv, false)
			figure4c(w, res)
			javaTable(w)
			timeoutAblation(w, *seed)
			condorAblation(w, *seed)
			consistency(w, res)
		default:
			fmt.Fprintf(os.Stderr, "ew sc98: unknown figure %q\n", *fig)
			return 2
		}
		return 0
	}
}

// chaosRun stands up a miniature SC98 deployment — Gossip pool, scheduler
// pair, a three-replica persistent state fleet, compute components — over
// real localhost daemons, injects seeded message faults into every
// inter-process call, partitions and heals the Gossip pool mid-run, and
// runs the durability experiment (crash a state manager mid-persist,
// restart it from its data directory, isolate a replica, heal). The
// process exits non-zero if the toolkit failed to deliver useful work, the
// clique did not re-merge, the replica fleet did not converge, or any
// acknowledged checkpoint write was lost.
func chaosRun(w io.Writer, seed int64, fc faults.Config, tr wire.Transport) {
	dir, err := os.MkdirTemp("", "ew-chaos-*")
	if err != nil {
		log.Fatalf("ew sc98: chaos: %v", err)
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(w, "== Chaos: mini SC98 over real daemons with fault injection ==")
	fmt.Fprintf(w, "seed %d; rates drop=%.0f%% dup=%.0f%% reset=%.0f%% torn=%.0f%% delay=%.0f%%\n",
		seed, 100*fc.Drop, 100*fc.Dup, 100*fc.Reset, 100*fc.Torn, 100*fc.Delay)
	res, err := faults.RunScenario(faults.ScenarioConfig{
		Seed:          seed,
		Faults:        fc,
		Dir:           dir,
		Transport:     tr,
		PartitionHeal: true,
		PStateCrash:   true,
		Trace:         true,
		SchedOutage:   true,
		Obs:           true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ew sc98: chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		log.Fatalf("ew sc98: chaos: %v", err)
	}
	fmt.Fprintf(w, "%-24s %d\n", "useful ops delivered", res.Ops)
	fmt.Fprintf(w, "%-24s %d\n", "scheduling cycles", res.CompletedCycles)
	fmt.Fprintf(w, "%-24s %d\n", "component errors", res.ComponentErrs)
	fmt.Fprintf(w, "%-24s split=%v merged=%v\n", "gossip partition", res.PoolSplit, res.PoolMerged)
	st := res.Stats
	fmt.Fprintf(w, "%-24s sent=%d delivered=%d dropped=%d delayed=%d dup=%d reset=%d torn=%d refused=%d\n",
		"injector", st.Messages, st.Delivered, st.Dropped, st.Delayed, st.Duplicated, st.Resets, st.Torn, st.Refused)
	fmt.Fprintf(w, "%-24s converged=%v acked=%d lost=%d crashes=%d\n",
		"pstate durability", res.PStateConverged, res.AckedWrites, res.LostWrites, res.PStateCrashes)
	fmt.Fprintf(w, "%-24s partition-alert-fired=%v quiet-after-heal=%v alerts=%d\n",
		"observatory", res.ObsAlertFired, res.ObsAlertQuiet, len(res.ObsAlerts))
	if res.Ops == 0 {
		log.Fatal("ew sc98: chaos: no useful work delivered")
	}
	if !res.PoolMerged {
		log.Fatal("ew sc98: chaos: gossip pool did not re-merge after the heal")
	}
	if !res.PStateConverged {
		log.Fatal("ew sc98: chaos: pstate replicas did not converge after the heal")
	}
	if res.LostWrites != 0 {
		log.Fatalf("ew sc98: chaos: %d acknowledged checkpoint writes lost", res.LostWrites)
	}
	fmt.Fprintf(w, "%-24s %d spans in %d traces\n", "causal traces", len(res.TraceSpans), len(res.Traces))
	pick := pickTrace(res.Traces)
	if pick == nil {
		log.Fatal("ew sc98: chaos: no trace spans 3+ daemons with a retried call")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "-- sample trace (3+ daemons, retried call; '*' marks the critical path) --")
	fmt.Fprint(w, dtrace.Render(pick))
	fmt.Fprintln(w, "chaos run survived: work delivered, the pool re-merged, and no acked write was lost")
	fmt.Fprintln(w)
}

// pickTrace selects a collected trace that crosses at least three daemons
// and contains a retried call (a wire.call span with two or more
// wire.attempt children) — the causal picture the chaos figure exists to
// show. Among qualifiers the widest trace wins.
func pickTrace(trees []*dtrace.Tree) *dtrace.Tree {
	var best *dtrace.Tree
	for _, t := range trees {
		if len(t.Services()) < 3 || !hasRetry(t.Roots) {
			continue
		}
		if best == nil || t.Spans > best.Spans {
			best = t
		}
	}
	return best
}

// hasRetry walks a span forest for a call with multiple attempt children.
func hasRetry(nodes []*dtrace.Node) bool {
	for _, n := range nodes {
		if strings.HasPrefix(n.Name, "wire.call.") {
			attempts := 0
			for _, c := range n.Children {
				if c.Name == "wire.attempt" {
					attempts++
				}
			}
			if attempts >= 2 {
				return true
			}
		}
		if hasRetry(n.Children) {
			return true
		}
	}
	return false
}

// scaleFigure runs the web-scale sweep (the E14 experiment): 100k -> 1M
// virtual clients reporting through region gateways into a sharded
// scheduler fleet, shards scaled with the population, plus an overload
// point where admission control sheds and a chaos point where a shard
// dies mid-run. Prints the sweep table; exits non-zero if any point
// loses a report.
func scaleFigure(w io.Writer, seed int64, maxClients int) {
	fmt.Fprintln(w, "== Web scale: sharded scheduling sweep (virtual time) ==")
	fmt.Fprintf(w, "%9s %7s %8s %9s %9s %7s %10s %10s %11s %10s %10s\n",
		"clients", "shards", "regions", "reports", "acked", "shed%", "p50", "p95", "shard recs", "B/client", "failovers")
	points := []struct {
		label string
		cfg   sweep.Config
	}{
		{"", sweep.Config{Clients: 100_000, Shards: 8, AdmitRate: 2000, AdmitBurst: 1000}},
		{"", sweep.Config{Clients: 300_000, Shards: 24, AdmitRate: 2000, AdmitBurst: 1000}},
		{"", sweep.Config{Clients: 1_000_000, Shards: 80, AdmitRate: 2000, AdmitBurst: 1000}},
		{"overload", sweep.Config{Clients: 300_000, Shards: 8, AdmitRate: 2000, AdmitBurst: 1000}},
		{"shard kill", sweep.Config{Clients: 100_000, Shards: 8, AdmitRate: 2000, AdmitBurst: 1000,
			KillAt: 10 * time.Second, KillShard: 3}},
	}
	lost := false
	for _, p := range points {
		if p.cfg.Clients > maxClients {
			continue
		}
		p.cfg.Seed = seed
		res := sweep.Run(p.cfg)
		fmt.Fprintf(w, "%9d %7d %8d %9d %9d %6.1f%% %10s %10s %11d %10.1f %10d",
			res.Clients, res.Shards, res.Regions, res.Reports, res.Acked,
			100*res.ShedRate, res.P50.Round(time.Millisecond), res.P95.Round(time.Millisecond),
			res.MaxShardRecords, res.HeapPerClient, res.Failovers)
		if p.label != "" {
			fmt.Fprintf(w, "  (%s)", p.label)
		}
		fmt.Fprintln(w)
		if res.Lost != 0 {
			fmt.Fprintf(w, "ew sc98: scale: %d reports lost at %d clients\n", res.Lost, res.Clients)
			lost = true
		}
	}
	flat, hier := res2Traffic(maxClients)
	fmt.Fprintf(w, "gossip traffic model at %d members: flat %.3g msgs/round vs hierarchical %.3g (%.0fx less)\n",
		maxClients, float64(flat), float64(hier), float64(flat)/float64(hier))
	if lost {
		log.Fatal("ew sc98: scale: report conservation violated")
	}
	fmt.Fprintln(w, "per-shard state and p50 decision latency stay bounded as shards scale with the population")
	fmt.Fprintln(w)
}

// res2Traffic sizes the flat-vs-hierarchical gossip comparison at the
// sweep's largest population.
func res2Traffic(n int) (flat, hier int) {
	return scale.GossipTraffic(n, 4096)
}

// telemetryFigure stands up the same miniature SC98 deployment as the
// chaos figure but fault-free, runs the workload plus a partition/heal of
// the Gossip pool, then polls every daemon's telemetry over the wire
// protocol and renders the per-daemon metrics table — each cell reported
// by the daemon's own instruments, not the harness.
func telemetryFigure(w io.Writer, seed int64, tr wire.Transport) {
	dir, err := os.MkdirTemp("", "ew-telemetry-*")
	if err != nil {
		log.Fatalf("ew sc98: telemetry: %v", err)
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(w, "== Telemetry: per-daemon metrics from a mini SC98 deployment ==")
	res, err := faults.RunScenario(faults.ScenarioConfig{
		Seed:          seed,
		Dir:           dir,
		Transport:     tr,
		PartitionHeal: true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ew sc98: telemetry: "+format+"\n", args...)
		},
	})
	if err != nil {
		log.Fatalf("ew sc98: telemetry: %v", err)
	}
	if len(res.Snapshots) == 0 {
		log.Fatal("ew sc98: telemetry: no daemon answered the introspection poll")
	}
	labels := make([]string, 0, len(res.Snapshots))
	for label := range res.Snapshots {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	snaps := make([]telemetry.NamedSnapshot, 0, len(labels))
	for _, label := range labels {
		snaps = append(snaps, telemetry.NamedSnapshot{Addr: label, Snap: res.Snapshots[label]})
	}
	telemetry.RenderTable(w, snaps)
	fmt.Fprintf(w, "ops=%d cycles=%d retries=%d partition healed=%d merge(s)\n\n",
		res.Ops, res.CompletedCycles, res.Retries, res.PartitionsHealed)
}

func figure2(w io.Writer, res *grid.Result, csv bool) {
	fmt.Fprintln(w, "== Figure 2: Sustained Application Performance (5-minute averages) ==")
	rates := res.Total.Rates()
	if csv {
		fmt.Fprintln(w, "time,ops_per_sec")
		for i, r := range rates {
			fmt.Fprintf(w, "%s,%.6g\n", res.Total.BucketTime(i).Format("15:04:05"), r)
		}
	} else {
		fmt.Fprint(w, trace.RenderASCII("total ops/s", rates, 12, false))
	}
	peak, at := res.PeakRate()
	fmt.Fprintf(w, "peak sustained rate: %.3g ops/s at %s (paper: 2.39e9 between 09:51 and 09:56)\n",
		peak, at.Format("15:04"))
	fmt.Fprintf(w, "judging trough:      %.3g ops/s (paper: 1.1e9)\n",
		res.MinRateBetween(grid.JudgingAt, grid.JudgingAt+15*time.Minute))
	fmt.Fprintf(w, "recovery by 11:12:   %.3g ops/s (paper: 2.0e9 by 11:10)\n\n",
		res.RateAt(grid.JudgingAt+12*time.Minute))
}

func figure3a(w io.Writer, res *grid.Result, csv, logScale bool) {
	title := "Figure 3a: Sustained Processing Rate by Infrastructure"
	if logScale {
		title = "Figure 4a: Rate by Infrastructure (log scale)"
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	if csv {
		res.Perf.WriteCSV(w, "rate")
	} else {
		for _, in := range grid.Infras() {
			s := res.Perf.Series(string(in))
			fmt.Fprint(w, trace.RenderASCII(string(in)+" ops/s", s.Rates(), 6, logScale))
		}
	}
	fmt.Fprintln(w)
}

func figure3b(w io.Writer, res *grid.Result, csv, logScale bool) {
	title := "Figure 3b: Host Count by Infrastructure"
	if logScale {
		title = "Figure 4b: Host Count by Infrastructure (log scale)"
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	if csv {
		res.Hosts.WriteCSV(w, "mean")
	} else {
		for _, in := range grid.Infras() {
			s := res.Hosts.Series(string(in))
			fmt.Fprint(w, trace.RenderASCII(string(in)+" hosts", s.Means(), 5, logScale))
		}
	}
	fmt.Fprintln(w)
}

func figure4c(w io.Writer, res *grid.Result) {
	fmt.Fprintln(w, "== Figure 4c: Total Program Performance (log scale) ==")
	fmt.Fprint(w, trace.RenderASCII("log10 total ops/s", res.Total.Rates(), 10, true))
	fmt.Fprintln(w)
}

func javaTable(w io.Writer) {
	fmt.Fprintln(w, "== Section 5.6: Java applet performance (300 MHz Pentium II) ==")
	fmt.Fprintf(w, "%-22s %18s\n", "configuration", "integer ops/s")
	fmt.Fprintf(w, "%-22s %18.0f\n", "interpreted applet", grid.JavaInterpretedOpsPerSec)
	fmt.Fprintf(w, "%-22s %18.0f\n", "JIT-compiled applet", grid.JavaJITOpsPerSec)
	fmt.Fprintf(w, "speedup: %.1fx (paper: 12,109,720 / 111,616 = 108.5x)\n\n",
		grid.JavaJITOpsPerSec/grid.JavaInterpretedOpsPerSec)
}

func timeoutAblation(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Section 2.2 ablation: dynamic vs static time-out discovery ==")
	dyn := grid.RunSC98(grid.ScenarioConfig{Seed: seed, Duration: 3 * time.Hour, AdaptiveTimeouts: true})
	stat := grid.RunSC98(grid.ScenarioConfig{Seed: seed, Duration: 3 * time.Hour, AdaptiveTimeouts: false})
	fmt.Fprintf(w, "%-10s %16s %16s %14s\n", "mode", "spurious t/o", "failed reports", "lost ops")
	fmt.Fprintf(w, "%-10s %16d %16d %14.3g\n", "dynamic", dyn.SpuriousTimeouts, dyn.FailedReports, dyn.LostOps)
	fmt.Fprintf(w, "%-10s %16d %16d %14.3g\n", "static", stat.SpuriousTimeouts, stat.FailedReports, stat.LostOps)
	fmt.Fprintln(w, "(the paper: static time-outs caused needless retries and reconfigurations)")
	fmt.Fprintln(w)
}

func condorAblation(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Section 5.4 ablation: scheduler placement vs Condor reclamation ==")
	in := grid.RunCondorPlacement(grid.CondorPlacementConfig{Seed: seed, SchedulerInPool: true})
	out := grid.RunCondorPlacement(grid.CondorPlacementConfig{Seed: seed, SchedulerInPool: false})
	fmt.Fprintf(w, "%-14s %14s %14s %14s %12s\n", "placement", "useful ops", "sched deaths", "locate events", "wasted (s)")
	fmt.Fprintf(w, "%-14s %14.4g %14d %14d %12.0f\n", "in Condor pool", in.UsefulOps, in.SchedulerDeaths, in.LocateEvents, in.WastedSeconds)
	fmt.Fprintf(w, "%-14s %14.4g %14d %14d %12.0f\n", "external", out.UsefulOps, out.SchedulerDeaths, out.LocateEvents, out.WastedSeconds)
	fmt.Fprintf(w, "external advantage: %.1f%% more useful work\n\n",
		100*(out.UsefulOps-in.UsefulOps)/in.UsefulOps)
}

func consistency(w io.Writer, res *grid.Result) {
	fmt.Fprintln(w, "== Section 7 'consistent' criterion: uniformity of delivered power ==")
	// Drop warm-up and post-judging buckets: the criterion concerns the
	// steady pre-competition window.
	rates := res.Total.Rates()
	lastSteady := int(grid.JudgingAt / res.BucketWidth)
	if lastSteady > len(rates) {
		lastSteady = len(rates)
	}
	if lastSteady < 2 {
		fmt.Fprintln(w, "(window too short for a steady-state analysis)")
		return
	}
	steady := rates[1:lastSteady]
	fmt.Fprintf(w, "%-10s %22s\n", "series", "coeff. of variation")
	fmt.Fprintf(w, "%-10s %22.3f\n", "total", trace.CoefficientOfVariation(steady))
	worst := 0.0
	for _, in := range grid.Infras() {
		s := res.Perf.Series(string(in))
		cv := trace.CoefficientOfVariation(s.Rates()[1:lastSteady])
		fmt.Fprintf(w, "%-10s %22.3f\n", in, cv)
		worst = math.Max(worst, cv)
	}
	fmt.Fprintf(w, "total draws power %.1fx more uniformly than the most variable infrastructure\n\n",
		worst/math.Max(trace.CoefficientOfVariation(steady), 1e-9))
}
