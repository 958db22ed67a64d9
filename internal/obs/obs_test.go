package obs

import (
	"testing"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// snapAt builds a hand-rolled snapshot at a fixed timestamp.
func snapAt(nanos int64, samples ...telemetry.Sample) telemetry.Snapshot {
	return telemetry.Snapshot{ID: "d1", TakenUnixNanos: nanos, Samples: samples}
}

func counter(name string, v int64) telemetry.Sample {
	return telemetry.Sample{Name: name, Kind: telemetry.KindCounter, Value: v}
}

func gauge(name string, v int64) telemetry.Sample {
	return telemetry.Sample{Name: name, Kind: telemetry.KindGauge, Value: v}
}

const sec = int64(time.Second)

// TestSeriesCounterRate: cumulative counters become per-second rates;
// the first scrape only seeds, and a counter reset reseeds without a
// negative rate.
func TestSeriesCounterRate(t *testing.T) {
	ss := NewSeriesSet(16)
	ss.Ingest("d1", snapAt(0*sec, counter("req", 100)))
	ss.Ingest("d1", snapAt(10*sec, counter("req", 300)))
	ss.Ingest("d1", snapAt(20*sec, counter("req", 300)))
	ss.Ingest("d1", snapAt(30*sec, counter("req", 5))) // daemon restarted
	ss.Ingest("d1", snapAt(40*sec, counter("req", 105)))

	pts := ss.Get(SeriesKey{"d1", "req.rate"})
	if len(pts) != 3 {
		t.Fatalf("points = %+v, want 3 (seed and reset emit nothing)", pts)
	}
	if pts[0].Value != 20 || pts[1].Value != 0 || pts[2].Value != 10 {
		t.Fatalf("rates = %+v, want 20, 0, 10", pts)
	}
}

// TestSeriesRingBounded: the window never exceeds its capacity and
// keeps the newest points.
func TestSeriesRingBounded(t *testing.T) {
	ss := NewSeriesSet(4)
	for i := 0; i < 10; i++ {
		ss.Ingest("d1", snapAt(int64(i)*sec, gauge("depth", int64(i))))
	}
	pts := ss.Get(SeriesKey{"d1", "depth"})
	if len(pts) != 4 {
		t.Fatalf("window = %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Value != float64(6+i) {
			t.Fatalf("window = %+v, want values 6..9 oldest-first", pts)
		}
	}
	if last, ok := ss.Latest(SeriesKey{"d1", "depth"}); !ok || last.Value != 9 {
		t.Fatalf("latest = %+v, want 9", last)
	}
}

// TestSeriesHistogramDerivation: histograms yield a p99 series, an
// observation-rate series, and retained exemplars resolvable from
// either derived name.
func TestSeriesHistogramDerivation(t *testing.T) {
	reg := telemetry.NewRegistry()
	base := time.Unix(100, 0)
	reg.SetNow(func() time.Time { return base })
	h := reg.Histogram("handle")
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.ObserveTraced(50*time.Millisecond, 0xabc)

	ss := NewSeriesSet(16)
	ss.Ingest("d1", reg.Snapshot(""))
	base = base.Add(10 * time.Second)
	h.Observe(100 * time.Microsecond)
	ss.Ingest("d1", reg.Snapshot(""))

	if pts := ss.Get(SeriesKey{"d1", "handle.p99"}); len(pts) != 2 || pts[0].Value <= 0 {
		t.Fatalf("p99 series = %+v", pts)
	}
	rate := ss.Get(SeriesKey{"d1", "handle.rate"})
	if len(rate) != 1 || rate[0].Value != 0.1 {
		t.Fatalf("rate series = %+v, want one point at 0.1/s", rate)
	}
	ex, ok := ss.SlowestExemplar(SeriesKey{"d1", "handle.p99"})
	if !ok || ex.TraceID != 0xabc {
		t.Fatalf("exemplar via p99 = %+v, %v", ex, ok)
	}
	if ex, ok := ss.SlowestExemplar(SeriesKey{"d1", "handle.rate"}); !ok || ex.TraceID != 0xabc {
		t.Fatalf("exemplar via rate = %+v, %v", ex, ok)
	}
}

// evalRounds feeds the gauge series one value per round and evaluates.
func evalRounds(e *Engine, ss *SeriesSet, start int64, vals ...float64) (fired, cleared int) {
	for i, v := range vals {
		nanos := (start + int64(i)) * sec
		ss.Ingest("d1", snapAt(nanos, gauge("load", int64(v))))
		f, c := e.Eval(ss, nanos)
		fired += f
		cleared += c
	}
	return fired, cleared
}

// TestThresholdRule: fires after For consecutive breaches, clears after
// ClearAfter calm rounds, and counts transitions.
func TestThresholdRule(t *testing.T) {
	ss := NewSeriesSet(16)
	e := NewEngine([]Rule{{Name: "hot", Metric: "load", Limit: 50, For: 2, ClearAfter: 2, Role: "sched"}})

	if f, _ := evalRounds(e, ss, 0, 10, 60); f != 0 {
		t.Fatal("fired after a single breach, want For=2 sustained")
	}
	if f, _ := evalRounds(e, ss, 2, 70); f != 1 {
		t.Fatal("did not fire after 2 consecutive breaches")
	}
	if e.Firing("sched") != 1 || e.Firing("other") != 0 {
		t.Fatalf("firing by role: sched=%d other=%d", e.Firing("sched"), e.Firing("other"))
	}
	if _, c := evalRounds(e, ss, 3, 10, 10); c != 1 {
		t.Fatal("did not clear after 2 calm rounds")
	}
	al := e.Alerts()
	if len(al) != 1 || al[0].Firing || al[0].Fires != 1 || al[0].ClearedUnixNanos == 0 {
		t.Fatalf("alert after clear = %+v", al)
	}
}

// TestThresholdNoFreshDataHolds: without a new point the streaks do not
// advance — a stalled scrape neither fires nor clears anything.
func TestThresholdNoFreshDataHolds(t *testing.T) {
	ss := NewSeriesSet(16)
	e := NewEngine([]Rule{{Name: "hot", Metric: "load", Limit: 50, For: 2}})
	evalRounds(e, ss, 0, 60)
	for i := 0; i < 5; i++ { // re-eval the same stale point
		if f, _ := e.Eval(ss, int64(100+i)*sec); f != 0 {
			t.Fatal("stale point advanced the breach streak")
		}
	}
}

// TestAnomalyRule: a stable series trains the forecaster; a sustained
// spike is a prediction-error burst that fires, and the alert clears
// once the series settles and the tolerance band has adapted.
func TestAnomalyRule(t *testing.T) {
	ss := NewSeriesSet(64)
	e := NewEngine([]Rule{{
		Name: "odd", Kind: RuleAnomaly, Metric: "load",
		Tolerance: 2, MinSamples: 8, For: 2, ClearAfter: 2,
	}})

	warm := make([]float64, 12)
	for i := range warm {
		warm[i] = 10
	}
	if f, _ := evalRounds(e, ss, 0, warm...); f != 0 {
		t.Fatal("fired during warmup on a constant series")
	}
	if f, _ := evalRounds(e, ss, 12, 100, 100, 100); f != 1 {
		t.Fatalf("sustained 10x spike did not fire: %+v", e.Alerts())
	}

	// Settle back; the forecaster adapts and the alert must clear.
	clearedAt := -1
	for i := 0; i < 30; i++ {
		if _, c := evalRounds(e, ss, int64(15+i), 10); c == 1 {
			clearedAt = i
			break
		}
	}
	if clearedAt < 0 {
		t.Fatalf("anomaly alert never cleared after settling: %+v", e.Alerts())
	}
}

// TestBurnRateRule: the error-rate / total-rate fraction over budget
// fires; the alert carries the burn fraction, not the raw rate.
func TestBurnRateRule(t *testing.T) {
	ss := NewSeriesSet(16)
	e := NewEngine([]Rule{{
		Name: "slo", Kind: RuleBurnRate,
		Metric: "req.rate", ErrMetric: "errs.rate",
		Limit: 0.05, For: 2, ClearAfter: 2,
	}})

	feed := func(round int64, req, errs int64) (int, int) {
		nanos := round * sec
		ss.Ingest("d1", snapAt(nanos, counter("req", req), counter("errs", errs)))
		return e.Eval(ss, nanos)
	}
	feed(0, 0, 0) // seed both rates
	feed(10, 1000, 10)
	feed(20, 2000, 20) // 1% errors: within budget
	if e.Firing("") != 0 {
		t.Fatal("fired within error budget")
	}
	feed(30, 3000, 220)
	f, _ := feed(40, 4000, 420) // 20% errors sustained
	if f != 1 {
		t.Fatalf("burn over budget did not fire: %+v", e.Alerts())
	}
	al := e.Alerts()[0]
	if al.Value < 0.15 || al.Value > 0.25 {
		t.Fatalf("alert value = %v, want the burn fraction (~0.2)", al.Value)
	}
}

// TestRestore: persisted alerts reappear in the table; a stale firing
// alert clears once fresh calm data arrives.
func TestRestore(t *testing.T) {
	ss := NewSeriesSet(16)
	e := NewEngine([]Rule{{Name: "hot", Metric: "load", Limit: 50, For: 2, ClearAfter: 2}})
	e.Restore([]Alert{{Rule: "hot", Daemon: "d1", Firing: true, Fires: 3, FiredUnixNanos: 1}})
	if e.Firing("") != 1 {
		t.Fatal("restored firing alert not counted")
	}
	if _, c := evalRounds(e, ss, 0, 10, 10); c != 1 {
		t.Fatal("stale restored alert did not clear on calm data")
	}
	if al := e.Alerts(); al[0].Fires != 3 {
		t.Fatalf("restored fire count lost: %+v", al)
	}
}

// TestAlertsCodecRoundTrip pins the MsgObsAlerts payload format.
func TestAlertsCodecRoundTrip(t *testing.T) {
	in := []Alert{
		{Rule: "hot", Daemon: "sched@1", Role: "sched", Kind: RuleAnomaly, Firing: true,
			Value: 99.5, Threshold: 12.25, Fires: 4, FiredUnixNanos: 1111},
		{Rule: "slo", Daemon: "ps@2", Kind: RuleBurnRate, Value: 0.07, Threshold: 0.05,
			Fires: 1, FiredUnixNanos: 22, ClearedUnixNanos: 33},
	}
	out, err := DecodeAlerts(EncodeAlerts(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mangled: %+v", out)
	}
	if _, err := DecodeAlerts([]byte{alertsVersion + 1}); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := DecodeAlerts(EncodeAlerts(in)[:10]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestQueryCodecRoundTrip pins the MsgObsQuery payload format.
func TestQueryCodecRoundTrip(t *testing.T) {
	in := []QuerySeries{
		{Daemon: "d1", Metric: "load", Points: []Point{{1, 2.5}, {2, 3.5}},
			ExemplarTrace: 0xabc, ExemplarNanos: 777},
		{Daemon: "d2", Metric: "req.rate"},
	}
	out, err := DecodeQueryResponse(EncodeQueryResponse(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Daemon != "d1" || len(out[0].Points) != 2 ||
		out[0].Points[1].Value != 3.5 || out[0].ExemplarTrace != 0xabc {
		t.Fatalf("round trip mangled: %+v", out)
	}
	var q QueryRequest
	e := wire.NewEncoder(64)
	QueryRequest{Daemon: "d", Metric: "m", MaxPoints: 7}.EncodeWire(e)
	if err := q.DecodeWire(wire.NewDecoder(e.Bytes())); err != nil || q.MaxPoints != 7 {
		t.Fatalf("query request round trip: %+v, %v", q, err)
	}
}

func TestRuleKindString(t *testing.T) {
	for k, want := range map[RuleKind]string{
		RuleThreshold: "threshold", RuleBurnRate: "burn-rate", RuleAnomaly: "anomaly", 0: "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("RuleKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
