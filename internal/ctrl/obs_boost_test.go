package ctrl

import (
	"sync"
	"testing"
	"time"

	"everyware/internal/wire"
)

// TestAutoscalerObsAlertBoost: a firing observatory alert tagged with
// an autoscaled role adds a replica's worth of predicted demand, so the
// fleet grows while the alert fires even though raw load alone would
// not justify it — and drifts back down after the alert clears.
func TestAutoscalerObsAlertBoost(t *testing.T) {
	tr := wire.NewMemTransport()
	_, psAddrs := newMemPStates(t, tr, 3)
	clock := newVClock()
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	t.Cleanup(wc.Close)

	var mu sync.Mutex
	firing := 0
	srv := newHACtrl(t, tr, clock, "ob-1", psAddrs, ServerConfig{
		Spec: &FleetSpec{Version: 1, Services: []ServiceSpec{
			{Role: "sched", Count: 1, Min: 1, Max: 3},
		}},
		// Steady load well under one replica's target: without the
		// alert boost, desired stays 1 forever.
		Load:    func(role string) (float64, bool) { return 80, true },
		ScaleUp: func(role string) error { return nil },
		AlertFiring: func(role string) int {
			if role != "sched" {
				t.Errorf("alert hook asked about role %q", role)
			}
			mu.Lock()
			defer mu.Unlock()
			return firing
		},
		TargetLoad: 100,
		Logf:       t.Logf,
	})

	var seq uint64
	beat := func() {
		seq++
		hb := Heartbeat{Member: Member{ID: "s1", Role: "sched"}, Seq: seq, Unix: clock.now().UnixNano()}
		if err := SendHeartbeat(wc, srv.Addr(), hb, time.Second); err != nil {
			t.Fatal(err)
		}
		clock.advance(50 * time.Millisecond)
	}
	count := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.spec.Service("sched").Count
	}
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			beat()
			srv.Tick()
		}
	}

	rounds(10)
	if got := count(); got != 1 {
		t.Fatalf("count moved without any alert: %d", got)
	}

	// Anomaly alert fires on the sched role: pred = 80 + 1*100 -> 2.
	mu.Lock()
	firing = 1
	mu.Unlock()
	rounds(3)
	if got := count(); got != 2 {
		t.Fatalf("count under firing alert = %d, want 2", got)
	}
	if srv.metrics.Snapshot("").Value("ctrl.scale.alertboost.sched") != 1 {
		t.Fatal("alert boost gauge not exported")
	}

	// Alert clears: the boost disappears and hysteresis shrinks back.
	mu.Lock()
	firing = 0
	mu.Unlock()
	rounds(6)
	if got := count(); got != 1 {
		t.Fatalf("count after alert cleared = %d, want 1", got)
	}
	if srv.metrics.Snapshot("").Value("ctrl.scale.alertboost.sched") != 0 {
		t.Fatal("alert boost gauge not reset after clear")
	}
}
