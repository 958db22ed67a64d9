package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Kind discriminates sample value types in a snapshot.
type Kind uint8

// Sample kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindFloatGauge
	KindHistogram
)

// Exemplar links one histogram bucket to a recent traced observation
// that landed there: the trace ID to hand to ew trace, and the observed
// duration. Exemplars ride the snapshot codec as a backwards-compatible
// extension, so old pollers simply never see them.
type Exemplar struct {
	Bucket  int
	TraceID uint64
	Nanos   int64 // the exemplar observation's duration
}

// HistogramData is the frozen state of one histogram: total count, total
// time, the per-bucket counts (see BucketBound for the bucket layout),
// and any per-bucket trace exemplars.
type HistogramData struct {
	Count     int64
	SumNanos  int64
	Buckets   []int64
	Exemplars []Exemplar
}

// SlowestExemplar returns the exemplar from the highest populated bucket
// — the trace behind the tail of the distribution — or false when the
// histogram carries none.
func (h *HistogramData) SlowestExemplar() (Exemplar, bool) {
	if h == nil || len(h.Exemplars) == 0 {
		return Exemplar{}, false
	}
	best := h.Exemplars[0]
	for _, ex := range h.Exemplars[1:] {
		if ex.Bucket > best.Bucket {
			best = ex
		}
	}
	return best, true
}

// Mean returns the mean observed duration.
func (h *HistogramData) Mean() time.Duration {
	if h == nil || h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the distribution by
// locating the bucket containing the target rank and interpolating
// linearly within it — assuming observations spread uniformly across the
// bucket, the standard estimator for bucketed histograms. The overflow
// bucket has no upper bound, so a rank landing there reports the
// bucket's lower bound.
func (h *HistogramData) Quantile(q float64) time.Duration {
	if h == nil || h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var seen int64
	for i, c := range h.Buckets {
		if seen+c < target {
			seen += c
			continue
		}
		if c == 0 {
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		if i >= len(h.Buckets)-1 || hi == time.Duration(math.MaxInt64) {
			return lo
		}
		frac := float64(target-seen) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return BucketBound(len(h.Buckets) - 1)
}

// Sample is one metric's frozen value.
type Sample struct {
	Name  string
	Kind  Kind
	Value int64          // counter, gauge
	Float float64        // float gauge
	Hist  *HistogramData // histogram
}

// Snapshot is a registry's full frozen state — the payload of the
// telemetry.Dump introspection message and of the HTTP /metrics endpoint.
type Snapshot struct {
	// ID labels the originating daemon (Registry.SetID).
	ID string
	// TakenUnixNanos is the snapshot time on the registry's clock
	// (virtual time under simulation).
	TakenUnixNanos int64
	// UptimeNanos is how long the registry has existed, per its clock.
	UptimeNanos int64
	Samples     []Sample
}

// Find returns the named sample.
func (s Snapshot) Find(name string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name {
			return sm, true
		}
	}
	return Sample{}, false
}

// Value returns the named counter/gauge value (0 if absent or of another
// kind).
func (s Snapshot) Value(name string) int64 {
	sm, ok := s.Find(name)
	if !ok {
		return 0
	}
	return sm.Value
}

// SumPrefix sums counter values, gauge values, and histogram counts over
// every sample whose name starts with prefix — e.g.
// SumPrefix("wire.server.handle.") is the total requests a daemon served.
func (s Snapshot) SumPrefix(prefix string) int64 {
	var total int64
	for _, sm := range s.Samples {
		if !strings.HasPrefix(sm.Name, prefix) {
			continue
		}
		switch sm.Kind {
		case KindCounter, KindGauge:
			total += sm.Value
		case KindHistogram:
			if sm.Hist != nil {
				total += sm.Hist.Count
			}
		}
	}
	return total
}

// WriteProm renders the snapshot in a Prometheus-compatible text format.
// Dots become underscores; histograms expand to _count, _sum_seconds, and
// p50/p95 gauge lines (quantile estimates from the exponential buckets).
func (s Snapshot) WriteProm(w io.Writer) {
	for _, sm := range s.Samples {
		name := promName(sm.Name)
		switch sm.Kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(w, "%s %d\n", name, sm.Value)
		case KindFloatGauge:
			fmt.Fprintf(w, "%s %g\n", name, sm.Float)
		case KindHistogram:
			if sm.Hist == nil {
				continue
			}
			fmt.Fprintf(w, "%s_count %d\n", name, sm.Hist.Count)
			fmt.Fprintf(w, "%s_sum_seconds %g\n", name, float64(sm.Hist.SumNanos)/1e9)
			fmt.Fprintf(w, "%s_p50_seconds %g\n", name, sm.Hist.Quantile(0.50).Seconds())
			fmt.Fprintf(w, "%s_p95_seconds %g\n", name, sm.Hist.Quantile(0.95).Seconds())
		}
	}
}

func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

// NamedSnapshot pairs one polled daemon with its snapshot (or the poll
// error), for table rendering.
type NamedSnapshot struct {
	Addr string
	Snap Snapshot
	Err  error
}

// tableColumn derives one display column from a snapshot.
type tableColumn struct {
	header string
	value  func(Snapshot) string
}

// count renders a total, blank when zero (keeps the table scannable).
func count(v int64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%d", v)
}

// standardColumns is the curated ew top column set: one column per
// subsystem signal, populated only where a daemon exposes the metric.
var standardColumns = []tableColumn{
	{"served", func(s Snapshot) string { return count(s.SumPrefix("wire.server.handle.")) }},
	{"call-ok", func(s Snapshot) string { return count(s.SumPrefix("wire.client.call.ok")) }},
	{"call-err", func(s Snapshot) string {
		return count(s.SumPrefix("wire.client.call.") - s.SumPrefix("wire.client.call.ok"))
	}},
	{"retries", func(s Snapshot) string { return count(s.Value("wire.client.retries")) }},
	{"dead", func(s Snapshot) string { return count(s.Value("wire.health.dead_marked")) }},
	{"members", func(s Snapshot) string { return count(s.Value("clique.members")) }},
	{"split", func(s Snapshot) string { return count(s.Value("clique.view.split")) }},
	{"merge", func(s Snapshot) string { return count(s.Value("clique.view.merge")) }},
	{"rounds", func(s Snapshot) string { return count(s.Value("gossip.sync.rounds")) }},
	{"regs", func(s Snapshot) string { return count(s.Value("gossip.registrations")) }},
	{"reports", func(s Snapshot) string { return count(s.Value("sched.reports")) }},
	{"dispatch", func(s Snapshot) string { return count(s.SumPrefix("sched.dispatched.")) }},
	{"found", func(s Snapshot) string { return count(s.Value("sched.found")) }},
	// Web-scale health: the routing ring's shard count, the admission
	// controller's shed rate (shed / offered), and which region of the
	// hierarchy a gateway daemon serves.
	{"shards", func(s Snapshot) string { return count(s.Value("scale.ring.shards")) }},
	{"shed%", func(s Snapshot) string {
		shed := s.Value("scale.shed.total")
		offered := s.Value("scale.admit.ok") + shed
		if offered == 0 {
			return ""
		}
		return fmt.Sprintf("%.1f%%", 100*float64(shed)/float64(offered))
	}},
	{"region", func(s Snapshot) string {
		sm, ok := s.Find("scale.region")
		if !ok {
			return ""
		}
		return fmt.Sprintf("r%d", sm.Value)
	}},
	{"stores", func(s Snapshot) string { return count(s.SumPrefix("pstate.store.")) }},
	{"fetches", func(s Snapshot) string { return count(s.SumPrefix("pstate.fetch.")) }},
	// Replication health: write-behind spool depth (component side),
	// anti-entropy repairs performed, and the newest-vs-oldest replica
	// version lag observed before the last repair round (manager side).
	{"spool", func(s Snapshot) string { return count(s.Value("pstate.replica.spool_depth")) }},
	{"repairs", func(s Snapshot) string { return count(s.Value("pstate.antientropy.repairs")) }},
	{"lag", func(s Snapshot) string { return count(s.Value("pstate.replica.lag")) }},
	{"ckpt", func(s Snapshot) string { return count(s.SumPrefix("core.checkpoint.")) }},
	// Control plane health (controller daemon): fleet membership as
	// live/total from the detector's current verdicts, plus the repair
	// action counters — dead-daemon restarts, standby promotions, and
	// config rollouts.
	{"fleet", func(s Snapshot) string {
		live, dead := s.Value("ctrl.members.live"), s.Value("ctrl.members.dead")
		if live == 0 && dead == 0 {
			return ""
		}
		return fmt.Sprintf("%d/%d", live, live+dead)
	}},
	// Replicated control plane: which role this controller holds in the
	// leader election, and the fencing epoch it acts under (held only by
	// the acting leader; followers and deposed leaders show none).
	{"role", func(s Snapshot) string {
		sm, ok := s.Find("ctrl.leader")
		if !ok {
			return ""
		}
		if sm.Value == 1 {
			return "leader"
		}
		return "follower"
	}},
	{"epoch", func(s Snapshot) string {
		sm, ok := s.Find("ctrl.epoch")
		if !ok || sm.Value == 0 {
			return ""
		}
		return count(sm.Value)
	}},
	{"restarts", func(s Snapshot) string { return count(s.Value("ctrl.restarts")) }},
	{"promote", func(s Snapshot) string { return count(s.Value("ctrl.promotions")) }},
	{"rollout", func(s Snapshot) string { return count(s.Value("ctrl.rollouts")) }},
	// Observability health: log entries evicted from a full logsvc ring,
	// trace spans exported by a daemon, and spans lost anywhere on the
	// trace path (exporter queue/batch drops plus collector ring
	// evictions).
	// Observatory health: alerts currently firing. The obs daemon reports
	// its fleet-wide total; other rows populate when ew top is pointed at
	// an observatory (-obs), which folds per-daemon firing counts into the
	// polled snapshots.
	{"alerts", func(s Snapshot) string { return count(s.Value("obs.alerts.firing")) }},
	{"log-drop", func(s Snapshot) string { return count(s.Value("logsvc.dropped")) }},
	{"spans", func(s Snapshot) string { return count(s.Value("dtrace.export.spans")) }},
	{"span-drop", func(s Snapshot) string {
		return count(s.Value("dtrace.export.dropped") + s.Value("logsvc.trace.dropped"))
	}},
	{"p95", func(s Snapshot) string {
		sm, ok := s.Find("wire.client.call.ok")
		if !ok || sm.Hist == nil || sm.Hist.Count == 0 {
			return ""
		}
		return sm.Hist.Quantile(0.95).Round(time.Millisecond / 10).String()
	}},
	// Pooled wire hot path health: cumulative buffer-pool gets, buffers
	// currently checked out (get − put; a steadily climbing value means
	// packets are never released), the miss rate (a Get that found its
	// pool empty and allocated), and the pipelined calls currently holding
	// an in-flight window slot.
	{"pool", func(s Snapshot) string { return count(s.Value("wire.pool.get")) }},
	{"held", func(s Snapshot) string {
		return count(s.Value("wire.pool.get") - s.Value("wire.pool.put"))
	}},
	{"miss%", func(s Snapshot) string {
		gets := s.Value("wire.pool.get")
		if gets == 0 {
			return ""
		}
		return fmt.Sprintf("%.1f%%", 100*float64(s.Value("wire.pool.miss"))/float64(gets))
	}},
	{"inflight", func(s Snapshot) string { return count(s.Value("wire.pipeline.inflight")) }},
}

// RenderTable renders one row per polled daemon with the curated column
// set, omitting columns empty across every daemon — the ew top display and
// the ew sc98 telemetry figure share this renderer.
func RenderTable(w io.Writer, snaps []NamedSnapshot) {
	cols := make([]tableColumn, 0, len(standardColumns))
	for _, c := range standardColumns {
		for _, ns := range snaps {
			if ns.Err == nil && c.value(ns.Snap) != "" {
				cols = append(cols, c)
				break
			}
		}
	}
	rows := make([][]string, 0, len(snaps)+1)
	header := []string{"daemon", "up"}
	for _, c := range cols {
		header = append(header, c.header)
	}
	rows = append(rows, header)
	for _, ns := range snaps {
		name := ns.Snap.ID
		if name == "" {
			name = ns.Addr
		}
		if ns.Err != nil {
			rows = append(rows, []string{ns.Addr, "unreachable"})
			continue
		}
		row := []string{name, time.Duration(ns.UptimeRound()).String()}
		for _, c := range cols {
			row = append(row, c.value(ns.Snap))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}

// UptimeRound returns the snapshot uptime rounded for display.
func (ns NamedSnapshot) UptimeRound() time.Duration {
	d := time.Duration(ns.Snap.UptimeNanos)
	switch {
	case d > time.Hour:
		return d.Round(time.Minute)
	case d > time.Minute:
		return d.Round(time.Second)
	default:
		return d.Round(10 * time.Millisecond)
	}
}

// writeAligned prints rows with columns padded to their widest cell.
func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// SumCounter totals the named counter across many snapshots — the chaos
// scenario's aggregation helper ("how many retries happened anywhere?").
func SumCounter(snaps map[string]Snapshot, name string) int64 {
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total int64
	for _, k := range keys {
		total += snaps[k].Value(name)
	}
	return total
}
