package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/dtrace"
	"everyware/internal/obs"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// The viewers poll running daemons over the lingua franca introspection
// messages, so they work against any deployment.

// viewFlags are the flags every viewer takes, declared once.
type viewFlags struct {
	timeout, interval time.Duration
	once              bool
}

// newView declares -timeout and, for a repainting viewer, -interval and
// -once.
func newView(fs *flag.FlagSet, repaints bool) *viewFlags {
	v := &viewFlags{}
	fs.DurationVar(&v.timeout, "timeout", 2*time.Second, "per-call timeout")
	if repaints {
		fs.DurationVar(&v.interval, "interval", 2*time.Second, "refresh interval")
		fs.BoolVar(&v.once, "once", false, "render one frame and exit")
	}
	return v
}

// repaint renders frame once (-once) or, clearing the screen between
// frames, every -interval until ctx is done. A failed frame fails a
// single render and is reported and retried otherwise.
func (v *viewFlags) repaint(ctx context.Context, w io.Writer, fs *flag.FlagSet, title string, frame func() error) int {
	for {
		if !v.once {
			fmt.Fprint(w, "\033[2J\033[H")
			fmt.Fprintf(w, "%s  %s  (%s, every %s)\n\n", fs.Name(), time.Now().Format("15:04:05"), title, v.interval)
		}
		if err := frame(); err != nil {
			if v.once {
				return fail(fs, err)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		}
		if v.once {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(v.interval):
		}
	}
}

// ctrlWatchCmd renders the operator's view of a running controller: one
// line per member with role, liveness verdict, suspicion level (phi),
// heartbeat age, and config version, plus the active pstate quorum
// roster, the standby pool, and the repair counters.
func ctrlWatchCmd(fs *flag.FlagSet) action {
	v := newView(fs, true)
	role := fs.String("role", "", "only show members of this role")
	return func(ctx context.Context, w io.Writer, args []string) int {
		if len(args) != 1 {
			return usage(fs, "controller-addr")
		}
		addr := args[0]
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		return v.repaint(ctx, w, fs, addr, func() error {
			st, err := ctrl.FetchStatus(wc, addr, v.timeout)
			if err != nil {
				return fmt.Errorf("status from %s: %w", addr, err)
			}
			members, err := ctrl.FetchMembers(wc, addr, v.timeout)
			if err != nil {
				return fmt.Errorf("membership from %s: %w", addr, err)
			}
			renderMembers(w, st, members, *role)
			return nil
		})
	}
}

func renderMembers(w io.Writer, st ctrl.Status, members []ctrl.MemberStatus, role string) {
	if role != "" {
		kept := members[:0]
		for _, m := range members {
			if m.Role == role {
				kept = append(kept, m)
			}
		}
		members = kept
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Role != members[j].Role {
			return members[i].Role < members[j].Role
		}
		return members[i].ID < members[j].ID
	})
	fmt.Fprintf(w, "ctrl %s  role %s  epoch %d  leader %s\n",
		st.ControllerID, st.Role, st.Epoch, st.LeaderID)
	fmt.Fprintf(w, "spec v%d  live %d  dead %d  |  restarts %d  promotions %d  rollouts %d  backoffs %d\n",
		st.SpecVersion, st.Live, st.Dead, st.Restarts, st.Promotions, st.Rollouts, st.Backoffs)
	fmt.Fprintf(w, "roster   %s\n", strings.Join(st.Roster, " "))
	if len(st.Standbys) > 0 {
		fmt.Fprintf(w, "standbys %s\n", strings.Join(st.Standbys, " "))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-8s %-22s %-6s %8s %10s %6s %5s %-8s\n",
		"MEMBER", "ROLE", "ADDR", "STATE", "PHI", "LAST BEAT", "BEATS", "CFG", "VER")
	now := time.Now()
	for _, m := range members {
		state := "alive"
		if !m.Alive {
			state = "DEAD"
		}
		age := "never"
		if m.LastSeenUnixNanos > 0 {
			age = now.Sub(time.Unix(0, m.LastSeenUnixNanos)).Truncate(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-10s %-8s %-22s %-6s %8.2f %10s %6d %5d %-8s\n",
			m.ID, m.Role, m.Addr, state, m.Phi, age, m.Beats, m.ConfigVer, m.Version)
	}
}

// seriesFlags selects an observatory's series, for obs-watch and
// obs-query.
type seriesFlags struct {
	daemon, metric string
	points         int
}

func newSeries(fs *flag.FlagSet) *seriesFlags {
	s := &seriesFlags{}
	fs.StringVar(&s.daemon, "daemon", "", "only series whose daemon ID contains this substring")
	fs.StringVar(&s.metric, "metric", "", "only series whose metric name contains this substring")
	fs.IntVar(&s.points, "points", 32, "points per series to fetch")
	return s
}

func (s *seriesFlags) fetch(wc *wire.Client, addr string, timeout time.Duration) ([]obs.QuerySeries, error) {
	series, err := obs.Query(wc, addr, obs.QueryRequest{
		Daemon: s.daemon, Metric: s.metric, MaxPoints: uint32(s.points),
	}, timeout)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", addr, err)
	}
	sort.Slice(series, func(i, j int) bool {
		if series[i].Daemon != series[j].Daemon {
			return series[i].Daemon < series[j].Daemon
		}
		return series[i].Metric < series[j].Metric
	})
	return series, nil
}

// obsWatchCmd renders an observatory's fleet time-series store as a live
// sparkline table, firing alerts on top. Rows show the newest points
// left-to-right scaled to the series' own min..max; a trailing "⇒ 4f1c…"
// is the exemplar trace ID of the slowest observation in a latency
// series — paste it into ew trace -trace to jump from the spike to the
// tail-sampled request behind it.
func obsWatchCmd(fs *flag.FlagSet) action {
	v := newView(fs, true)
	sel := newSeries(fs)
	return func(ctx context.Context, w io.Writer, args []string) int {
		if len(args) != 1 {
			return usage(fs, "observatory-addr")
		}
		addr := args[0]
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		return v.repaint(ctx, w, fs, addr, func() error {
			series, err := sel.fetch(wc, addr, v.timeout)
			if err != nil {
				return err
			}
			alerts, _ := obs.FetchAlerts(wc, addr, v.timeout)
			renderWatch(w, series, alerts)
			return nil
		})
	}
}

// obsQueryCmd dumps an observatory's raw series points.
func obsQueryCmd(fs *flag.FlagSet) action {
	v := newView(fs, false)
	sel := newSeries(fs)
	return func(_ context.Context, w io.Writer, args []string) int {
		if len(args) != 1 {
			return usage(fs, "observatory-addr")
		}
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		series, err := sel.fetch(wc, args[0], v.timeout)
		if err != nil {
			return fail(fs, err)
		}
		for _, s := range series {
			fmt.Fprintf(w, "%s %s\n", s.Daemon, s.Metric)
			for _, p := range s.Points {
				fmt.Fprintf(w, "  %s  %g\n", time.Unix(0, p.UnixNanos).Format("15:04:05.000"), p.Value)
			}
			if s.ExemplarTrace != 0 {
				fmt.Fprintf(w, "  exemplar trace %x (%s)\n", s.ExemplarTrace,
					time.Unix(0, s.ExemplarNanos).Format("15:04:05.000"))
			}
		}
		return 0
	}
}

// obsAlertsCmd prints an observatory's alert table, firing first.
func obsAlertsCmd(fs *flag.FlagSet) action {
	v := newView(fs, false)
	return func(_ context.Context, w io.Writer, args []string) int {
		if len(args) != 1 {
			return usage(fs, "observatory-addr")
		}
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		alerts, err := obs.FetchAlerts(wc, args[0], v.timeout)
		if err != nil {
			return fail(fs, fmt.Errorf("fetch alerts from %s: %w", args[0], err))
		}
		renderAlerts(w, alerts)
		return 0
	}
}

// renderWatch draws the dashboard frame: firing alerts on top, then one
// sparkline row per series.
func renderWatch(w io.Writer, series []obs.QuerySeries, alerts []obs.Alert) {
	firing := 0
	for _, al := range alerts {
		if al.Firing {
			firing++
		}
	}
	fmt.Fprintf(w, "%d series, %d alert(s) firing\n\n", len(series), firing)
	if firing > 0 {
		for _, al := range alerts {
			if al.Firing {
				fmt.Fprintf(w, "  FIRING %-20s %-28s %s=%.4g (threshold %.4g)\n",
					al.Rule, al.Daemon, al.Kind, al.Value, al.Threshold)
			}
		}
		fmt.Fprintln(w)
	}
	wd, wm := 6, 6
	for _, s := range series {
		wd = max(wd, len(s.Daemon))
		wm = max(wm, len(s.Metric))
	}
	for _, s := range series {
		last := 0.0
		if n := len(s.Points); n > 0 {
			last = s.Points[n-1].Value
		}
		row := fmt.Sprintf("%-*s  %-*s  %s  %.4g", wd, s.Daemon, wm, s.Metric, sparkline(s.Points), last)
		if s.ExemplarTrace != 0 {
			row += fmt.Sprintf("  ⇒ %x", s.ExemplarTrace)
		}
		fmt.Fprintln(w, row)
	}
}

var sparks = []rune("▁▂▃▄▅▆▇█")

// sparkline scales the series to its own min..max over eight levels.
func sparkline(pts []obs.Point) string {
	if len(pts) == 0 {
		return ""
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		lo, hi = min(lo, p.Value), max(hi, p.Value)
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if hi > lo {
			i = int((p.Value - lo) / (hi - lo) * float64(len(sparks)-1))
		}
		b.WriteRune(sparks[i])
	}
	return b.String()
}

func renderAlerts(w io.Writer, alerts []obs.Alert) {
	if len(alerts) == 0 {
		fmt.Fprintln(w, "no alert state (no rules, or nothing scraped yet)")
		return
	}
	fmt.Fprintf(w, "%-8s %-20s %-28s %-8s %-10s %10s %10s %6s  %s\n",
		"state", "rule", "daemon", "role", "kind", "value", "threshold", "fires", "since")
	for _, al := range alerts {
		state, since := "ok", ""
		if al.Firing {
			state = "FIRING"
			since = time.Unix(0, al.FiredUnixNanos).Format("15:04:05")
		} else if al.ClearedUnixNanos != 0 {
			since = "cleared " + time.Unix(0, al.ClearedUnixNanos).Format("15:04:05")
		}
		fmt.Fprintf(w, "%-8s %-20s %-28s %-8s %-10s %10.4g %10.4g %6d  %s\n",
			state, al.Rule, al.Daemon, al.Role, al.Kind, al.Value, al.Threshold, al.Fires, since)
	}
}

// topCmd polls daemons for their telemetry snapshots (every daemon
// answers MsgTelemetry) and renders a per-daemon metrics table: RPC
// traffic, retries, clique membership, gossip rounds, scheduler
// progress, checkpoint activity, call latency, and persistent state
// replication health. With -obs pointed at an observatory, every poll
// also folds each daemon's firing alert count into its row (the "alerts"
// column).
func topCmd(fs *flag.FlagSet) action {
	v := newView(fs, true)
	prefix := fs.String("prefix", "", "only fetch metrics with this name prefix")
	obsAddr := fs.String("obs", "", "observatory address: fold its per-daemon firing alert counts into the table")
	return func(ctx context.Context, w io.Writer, args []string) int {
		var targets []string
		for _, arg := range args {
			targets = append(targets, splitAddrs(arg)...)
		}
		if len(targets) == 0 {
			return usage(fs, "daemon-addr[,daemon-addr...]")
		}
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		title := fmt.Sprintf("%d daemons", len(targets))
		return v.repaint(ctx, w, fs, title, func() error {
			snaps := make([]telemetry.NamedSnapshot, len(targets))
			done := make(chan struct{}, len(targets))
			for i, addr := range targets {
				go func() {
					s, err := wire.FetchSnapshot(wc, addr, *prefix, v.timeout)
					snaps[i] = telemetry.NamedSnapshot{Addr: addr, Snap: s, Err: err}
					done <- struct{}{}
				}()
			}
			for range targets {
				<-done
			}
			if *obsAddr != "" {
				annotate(wc, *obsAddr, v.timeout, snaps)
			}
			telemetry.RenderTable(w, snaps)
			return nil
		})
	}
}

// annotate folds the observatory's firing alert counts into the polled
// snapshots as a synthetic obs.alerts.firing gauge per daemon, keyed by
// the daemon's telemetry ID. Fetch failures leave the table untouched —
// the observatory is an enrichment, not a dependency.
func annotate(wc *wire.Client, obsAddr string, timeout time.Duration, snaps []telemetry.NamedSnapshot) {
	alerts, err := obs.FetchAlerts(wc, obsAddr, timeout)
	if err != nil {
		return
	}
	firing := make(map[string]int64)
	for _, al := range alerts {
		if al.Firing {
			firing[al.Daemon]++
		}
	}
	for i := range snaps {
		if snaps[i].Err != nil {
			continue
		}
		id := snaps[i].Snap.ID
		if id == "" {
			id = snaps[i].Addr
		}
		if n := firing[id]; n > 0 {
			snaps[i].Snap.Samples = append(snaps[i].Snap.Samples, telemetry.Sample{
				Name: "obs.alerts.firing", Kind: telemetry.KindGauge, Value: n,
			})
		}
	}
}

// traceCmd fetches causal traces from a collector (a logd daemon) and
// renders them as span trees: one line per span, indented by causality,
// with per-hop latency, outcome, annotations, and the critical path
// marked with '*'. -trace accepts the exemplar trace IDs obs-watch and
// obs-query print next to slow histogram buckets (hex, with or without
// 0x, or decimal).
func traceCmd(fs *flag.FlagSet) action {
	v := newView(fs, false)
	maxSpans := fs.Int("max", 0, "fetch at most this many spans (0 = all the collector holds)")
	traceID := fs.String("trace", "", "show only this trace (hex trace ID)")
	last := fs.Int("last", 0, "show only the N most recently started traces (0 = all)")
	minDaemons := fs.Int("min-daemons", 0, "show only traces spanning at least this many daemons")
	minSpans := fs.Int("min-spans", 0, "show only traces with at least this many spans")
	return func(_ context.Context, w io.Writer, args []string) int {
		if len(args) != 1 {
			return usage(fs, "collector-addr")
		}
		addr := args[0]
		var id uint64
		if *traceID != "" {
			var err error
			id, err = strconv.ParseUint(strings.TrimPrefix(*traceID, "0x"), 16, 64)
			if err != nil {
				// Not hex: accept a decimal ID (exemplars from raw query
				// output are uint64s).
				id, err = strconv.ParseUint(*traceID, 10, 64)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: bad trace ID %q: %v\n", fs.Name(), *traceID, err)
				return 2
			}
		}
		wc := wire.NewClient(v.timeout)
		defer wc.Close()
		spans, err := dtrace.Fetch(wc, addr, *maxSpans, id, v.timeout)
		if err != nil {
			return fail(fs, fmt.Errorf("fetch from %s: %w", addr, err))
		}
		if len(spans) == 0 {
			fmt.Fprintln(w, "collector holds no matching spans")
			return 0
		}
		var kept []*dtrace.Tree
		for _, t := range dtrace.BuildTrees(spans) {
			if len(t.Services()) >= *minDaemons && t.Spans >= *minSpans {
				kept = append(kept, t)
			}
		}
		// Oldest first, so a terminal scroll ends on the most recent trace.
		sort.Slice(kept, func(i, j int) bool { return startOf(kept[i]) < startOf(kept[j]) })
		if *last > 0 && len(kept) > *last {
			kept = kept[len(kept)-*last:]
		}
		if len(kept) == 0 {
			fmt.Fprintf(w, "%d spans fetched but no trace matched the filters\n", len(spans))
			return 0
		}
		for i, t := range kept {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprint(w, dtrace.Render(t))
		}
		fmt.Fprintf(w, "\n%d trace(s), %d span(s) from %s\n", len(kept), len(spans), addr)
		return 0
	}
}

// startOf returns the earliest root start in the tree (0 if rootless).
func startOf(t *dtrace.Tree) int64 {
	var s int64
	for i, r := range t.Roots {
		if i == 0 || r.Start < s {
			s = r.Start
		}
	}
	return s
}
