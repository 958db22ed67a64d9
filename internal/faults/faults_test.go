package faults

import (
	"strings"
	"testing"
	"time"

	"everyware/internal/wire"
)

const msgEcho wire.MsgType = 230

func init() { wire.Define(msgEcho, "test.echo", true) }

// TestInjectorDeterminism: the fault schedule of a stream is a pure
// function of (seed, stream name) — bit-for-bit identical across
// injectors, regardless of what other streams consumed.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.1, Dup: 0.05, Reset: 0.05, Torn: 0.05, Delay: 0.1}
	a := New(cfg)
	b := New(cfg)
	// Perturb b with draws on unrelated streams: schedules must not shift.
	b.ScheduleFor("noise-1", 100)
	b.ScheduleFor("noise-2", 37)

	for _, stream := range []string{"c1->g1", "c2->g1", "g1->g2", "p1#in"} {
		sa := a.ScheduleFor(stream, 500)
		sb := b.ScheduleFor(stream, 500)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("stream %s verdict %d diverged: %v vs %v", stream, i, sa[i], sb[i])
			}
		}
	}

	// A different seed must yield a different schedule.
	c := New(Config{Seed: 43, Drop: 0.1, Dup: 0.05, Reset: 0.05, Torn: 0.05, Delay: 0.1})
	sa := New(cfg).ScheduleFor("c1->g1", 500)
	sc := c.ScheduleFor("c1->g1", 500)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 500-verdict schedules")
	}
}

// TestScheduleHitsConfiguredRates: over a long schedule each fault class
// appears at roughly its configured probability.
func TestScheduleHitsConfiguredRates(t *testing.T) {
	in := New(Config{Seed: 7, Drop: 0.2, Dup: 0.1, Reset: 0.1, Torn: 0.05, Delay: 0.1})
	const n = 20000
	counts := make(map[Action]int)
	for _, a := range in.ScheduleFor("s", n) {
		counts[a]++
	}
	check := func(a Action, want float64) {
		got := float64(counts[a]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%v rate = %.3f, want ~%.3f", a, got, want)
		}
	}
	check(ActDrop, 0.2)
	check(ActDup, 0.1)
	check(ActReset, 0.1)
	check(ActTorn, 0.05)
	check(ActDelay, 0.1)
	check(ActNone, 0.45)
}

// TestDialerInjectsFaultsAndRetrySurvives: a retrying client pushed
// through a 20% drop / 10% reset / 5% torn injector still completes every
// idempotent call against a real TCP server, and the injector's counters
// show the chaos actually happened.
func TestDialerInjectsFaultsAndRetrySurvives(t *testing.T) {
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	svc.Handle(msgEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		return &wire.Packet{Type: msgEcho, Payload: req.Payload}, nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	in := New(Config{Seed: 1, Drop: 0.2, Reset: 0.1, Torn: 0.05})
	in.RegisterName(addr, "svc")
	c := wire.NewClient(time.Second)
	defer c.Close()
	c.Transport = in.Transport(nil, "cli")
	c.Retry = &wire.RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}

	const calls = 60
	for i := 0; i < calls; i++ {
		if _, err := c.Call(addr, &wire.Packet{Type: msgEcho}, 150*time.Millisecond); err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
	}
	st := in.Stats()
	if st.Dropped == 0 && st.Resets == 0 && st.Torn == 0 {
		t.Fatalf("no faults injected across %d calls: %+v", calls, st)
	}
	if st.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", st)
	}
}

// TestPartitionRefusesAndHeals: dials across a partition are refused,
// established connections across it break on the next send, and Heal
// restores connectivity.
func TestPartitionRefusesAndHeals(t *testing.T) {
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	in := New(Config{Seed: 5})
	in.RegisterName(addr, "svc")
	c := wire.NewClient(time.Second)
	defer c.Close()
	c.Transport = in.Transport(nil, "cli")

	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatalf("pre-partition ping: %v", err)
	}
	in.Partition([]string{"cli"}, []string{"svc"})
	if _, err := c.Ping(addr, time.Second); err == nil {
		t.Fatal("ping succeeded across partition")
	} else if !strings.Contains(err.Error(), "partition") {
		// The cached connection fails at the write; a fresh dial is
		// refused. Either way the error must be the partition's.
		t.Fatalf("unexpected partition error: %v", err)
	}
	in.Heal()
	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatalf("post-heal ping: %v", err)
	}
	if in.Stats().Refused == 0 {
		t.Fatal("partition refusals not counted")
	}
}

// TestDuplicateDeliveredTwice: a duplicated request reaches the server
// twice; the client still completes (the demux discards the stray reply).
func TestDuplicateDeliveredTwice(t *testing.T) {
	var handled int64
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	done := make(chan struct{}, 16)
	svc.Handle(msgEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		handled++
		done <- struct{}{}
		return &wire.Packet{Type: msgEcho}, nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	in := New(Config{Seed: 3, Dup: 1.0}) // every message duplicated
	in.RegisterName(addr, "svc")
	c := wire.NewClient(time.Second)
	defer c.Close()
	c.Transport = in.Transport(nil, "cli")

	if _, err := c.Call(addr, &wire.Packet{Type: msgEcho}, time.Second); err != nil {
		t.Fatalf("call through duplicating link: %v", err)
	}
	<-done
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("duplicate never reached the server")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActNone: "none", ActDrop: "drop", ActDelay: "delay", ActDup: "dup",
		ActReset: "reset", ActTorn: "torn", Action(99): "Action(99)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}
