package wire

import (
	"testing"
	"time"

	"everyware/internal/telemetry"
)

func TestSnapshotRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetID("daemon-7")
	reg.Counter("wire.client.retries").Add(4)
	reg.Gauge("clique.members").Set(3)
	reg.FloatGauge("nws.forecast.abs_err").Set(0.125)
	reg.Histogram("pstate.store.ok").Observe(7 * time.Millisecond)
	snap := reg.Snapshot("")

	got, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "daemon-7" || got.TakenUnixNanos != snap.TakenUnixNanos || got.UptimeNanos != snap.UptimeNanos {
		t.Fatalf("header mismatch: %+v vs %+v", got, snap)
	}
	if len(got.Samples) != len(snap.Samples) {
		t.Fatalf("sample count %d, want %d", len(got.Samples), len(snap.Samples))
	}
	if got.Value("wire.client.retries") != 4 || got.Value("clique.members") != 3 {
		t.Fatal("counter/gauge values lost in round trip")
	}
	fg, _ := got.Find("nws.forecast.abs_err")
	if fg.Float != 0.125 {
		t.Fatalf("float gauge = %g", fg.Float)
	}
	h, _ := got.Find("pstate.store.ok")
	if h.Hist == nil || h.Hist.Count != 1 || h.Hist.SumNanos != int64(7*time.Millisecond) {
		t.Fatalf("histogram lost: %+v", h.Hist)
	}
	if h.Hist.Quantile(0.5) < 7*time.Millisecond {
		t.Fatal("histogram buckets lost")
	}
}

func TestDecodeSnapshotMalformed(t *testing.T) {
	for _, tc := range [][]byte{
		nil,
		{99},            // bad version
		{1, 0, 0, 0, 5}, // truncated ID
		EncodeSnapshot(telemetry.Snapshot{})[:10],
	} {
		if _, err := DecodeSnapshot(tc); err == nil {
			t.Fatalf("DecodeSnapshot(%v) accepted malformed input", tc)
		}
	}
}

func TestServerAnswersTelemetry(t *testing.T) {
	srv := NewServer()
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	reg.SetID("unit")
	reg.Counter("sched.reports").Add(9)
	reg.Counter("gossip.sync.rounds").Add(2)
	srv.SetMetrics(reg)

	c := NewClient(time.Second)
	defer c.Close()
	snap, err := FetchSnapshot(c, addr, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "unit" || snap.Value("sched.reports") != 9 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Prefix filtering happens server-side.
	snap, err = FetchSnapshot(c, addr, "gossip.", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Value("gossip.sync.rounds") != 2 || snap.Value("sched.reports") != 0 {
		t.Fatalf("prefix snapshot = %+v", snap)
	}
}

func TestClientCallMetrics(t *testing.T) {
	srv := NewServer()
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	c := NewClient(time.Second)
	c.Metrics = reg
	defer c.Close()

	if _, err := c.Ping(addr, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot("")
	ok, _ := snap.Find("wire.client.call.ok")
	if ok.Hist == nil || ok.Hist.Count != 1 {
		t.Fatalf("call.ok not recorded: %+v", ok)
	}

	// An unreachable address exhausts the dial ladder and counts retries.
	c.Retry = &RetryPolicy{MaxAttempts: 3}
	if _, err := c.Call("127.0.0.1:1", &Packet{Type: MsgPing}, 100*time.Millisecond); err == nil {
		t.Fatal("call to closed port succeeded")
	}
	snap = reg.Snapshot("")
	if snap.Value("wire.client.retries") != 2 {
		t.Fatalf("retries = %d, want 2", snap.Value("wire.client.retries"))
	}
	de, _ := snap.Find("wire.client.call.dial_error")
	if de.Hist == nil || de.Hist.Count != 1 {
		t.Fatalf("dial_error not recorded: %+v", de)
	}
}

func TestServerHandleSpans(t *testing.T) {
	srv := NewServer()
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(time.Second)
	defer c.Close()
	if _, err := c.Ping(addr, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics().Snapshot("")
	sm, ok := snap.Find("wire.server.handle.t2.ok")
	if !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatalf("ping handle span not recorded: %+v", snap.Samples)
	}
}
