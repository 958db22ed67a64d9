package scale

import (
	"errors"
	"testing"
	"time"

	"everyware/internal/telemetry"
)

// fakeClock is a manually advanced clock for admission tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestAdmitterShedsLowFirst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := telemetry.NewRegistry()
	m.SetNow(clk.now)
	a := NewAdmitter(AdmitterConfig{Rate: 10, Burst: 10, Metrics: m})

	// Drain below the low-priority floor (0.2*10 = 2 tokens).
	for i := 0; i < 9; i++ {
		if err := a.Admit(PriHigh); err != nil {
			t.Fatalf("admit %d under burst: %v", i, err)
		}
	}
	// 1 token left: low is under its floor of 2 and must shed; norm's
	// floor is 1, so norm still passes and drains the bucket; the next
	// high then sheds on empty.
	if err := a.Admit(PriLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low priority under reserve floor: want ErrShed, got %v", err)
	}
	if err := a.Admit(PriNorm); err != nil {
		t.Fatalf("norm at its floor: %v", err)
	}
	if err := a.Admit(PriHigh); !errors.Is(err, ErrShed) {
		t.Fatalf("empty bucket: want ErrShed, got %v", err)
	}

	snap := m.Snapshot("scale.")
	if got := snap.Value("scale.shed.low"); got != 1 {
		t.Errorf("scale.shed.low = %d, want 1", got)
	}
	if got := snap.Value("scale.shed.total"); got != 2 {
		t.Errorf("scale.shed.total = %d, want 2", got)
	}
	if got := snap.Value("scale.admit.ok"); got != 10 {
		t.Errorf("scale.admit.ok = %d, want 10", got)
	}

	// Refill: after 1 virtual second the bucket is full again.
	clk.advance(time.Second)
	if err := a.Admit(PriLow); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestAdmitterBatchPrefix(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := telemetry.NewRegistry()
	m.SetNow(clk.now)
	a := NewAdmitter(AdmitterConfig{Rate: 100, Burst: 5, Metrics: m})
	if got := a.AdmitN(PriHigh, 3); got != 3 {
		t.Fatalf("AdmitN under burst = %d, want 3", got)
	}
	if got := a.AdmitN(PriHigh, 10); got != 2 {
		t.Fatalf("AdmitN over burst = %d, want 2", got)
	}
	if got := a.AdmitN(PriHigh, 4); got != 0 {
		t.Fatalf("AdmitN empty = %d, want 0", got)
	}
}

func TestAdmitterDisabled(t *testing.T) {
	var a *Admitter
	if err := a.Admit(PriLow); err != nil {
		t.Fatalf("nil admitter must admit: %v", err)
	}
	open := NewAdmitter(AdmitterConfig{Rate: 0})
	for i := 0; i < 1000; i++ {
		if err := open.Admit(PriLow); err != nil {
			t.Fatalf("rate 0 must admit everything: %v", err)
		}
	}
}

func TestPriorityFor(t *testing.T) {
	if PriorityFor("java") != PriLow || PriorityFor("applet") != PriLow {
		t.Error("applet infrastructures must be PriLow")
	}
	if PriorityFor("unix") != PriHigh || PriorityFor("condor") != PriHigh {
		t.Error("computational infrastructures must be PriHigh")
	}
	if PriorityFor("") != PriNorm {
		t.Error("unknown infrastructure must be PriNorm")
	}
}

func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{PriLow: "low", PriNorm: "norm", PriHigh: "high"} {
		if got := p.String(); got != want {
			t.Errorf("Priority(%d).String() = %q, want %q", p, got, want)
		}
	}
}
