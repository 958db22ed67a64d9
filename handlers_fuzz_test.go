package everyware

// The request-decoder half of "fuzzers cover every codec that crosses a
// process boundary": every stock daemon, booted for real on one in-memory
// transport, is sent every type in the message table with payloads no
// well-behaved peer would write. This package is the one place that may
// import every daemon, so the harness lives here.

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"everyware/internal/applet"
	"everyware/internal/ctrl"
	"everyware/internal/globus"
	"everyware/internal/gossip"
	"everyware/internal/legion"
	"everyware/internal/logsvc"
	"everyware/internal/nws"
	"everyware/internal/obs"
	"everyware/internal/pstate"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// daemonUnderFuzz is one booted daemon's name and address.
type daemonUnderFuzz struct{ name, addr string }

// bootEveryDaemon starts one of each stock daemon on a fresh MemTransport
// (no socket is opened and nothing can dial off the machine), wired to
// each other the way a deployment wires them, with every background loop
// either off or slow enough not to matter. Cleanup closes them all.
func bootEveryDaemon(tb testing.TB) (wire.Transport, []daemonUnderFuzz) {
	tb.Helper()
	tr := wire.NewMemTransport()
	var fleet []daemonUnderFuzz
	started := func(name, addr string, err error, stop func()) string {
		tb.Helper()
		if err != nil {
			tb.Fatalf("start %s: %v", name, err)
		}
		tb.Cleanup(stop)
		fleet = append(fleet, daemonUnderFuzz{name, addr})
		return addr
	}

	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "mem-log:0", Transport: tr})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := ls.Start()
	logAddr := started("logsvc", addr, err, ls.Close)

	ps, err := pstate.NewServer(pstate.ServerConfig{
		ListenAddr: "mem-pstate:0", Transport: tr, Dir: tb.TempDir(), SyncInterval: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err = ps.Start()
	psAddr := started("pstate", addr, err, ps.Close)

	g := gossip.NewServer(gossip.ServerConfig{ListenAddr: "mem-gossip:0", Transport: tr, SyncInterval: time.Hour})
	addr, err = g.Start()
	gossipAddr := started("gossip", addr, err, g.Close)

	sv := sched.NewServer(sched.ServerConfig{ListenAddr: "mem-sched:0", Transport: tr, N: 5, K: 3, LogAddr: logAddr})
	addr, err = sv.Start()
	schedAddr := started("sched", addr, err, sv.Close)

	cs, err := ctrl.NewServer(ctrl.ServerConfig{
		ListenAddr: "mem-ctrl:0", Transport: tr, Interval: -1, CallTimeout: time.Second,
		Gossips: []string{gossipAddr}, PStates: []string{psAddr},
	})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err = cs.Start()
	started("ctrl", addr, err, cs.Close)

	ob := obs.New(obs.Config{
		ListenAddr: "mem-obs:0", Transport: tr, Silent: true, Interval: -1,
		Targets: []string{schedAddr}, PStates: []string{psAddr},
	})
	addr, err = ob.Start()
	started("obs", addr, err, func() { ob.Close() })

	mem := nws.NewMemoryOn(tr)
	addr, err = mem.Start("mem-nws:0")
	started("nws", addr, err, mem.Close)

	mds := globus.NewMDSOn(tr)
	addr, err = mds.Start("mem-mds:0")
	started("mds", addr, err, mds.Close)

	gass := globus.NewGASSOn(0, tr)
	addr, err = gass.Start("mem-gass:0")
	started("gass", addr, err, gass.Close)

	gk := globus.NewGatekeeper(globus.GatekeeperConfig{
		Name: "fuzz-site", Arch: "x86", Nodes: 2, Credential: "secret",
		StageTimeout: time.Second, Transport: tr,
	})
	addr, err = gk.Start("mem-gram:0")
	started("gram", addr, err, gk.Close)

	lt := legion.NewTranslatorOn(tr)
	if err := lt.Register(legion.NewServicesObject(sv, ps)); err != nil {
		tb.Fatal(err)
	}
	addr, err = lt.Start("mem-legion:0")
	started("legion", addr, err, lt.Close)

	gw, err := applet.NewGateway(applet.GatewayConfig{
		ListenAddr: "mem-applet:0", Transport: tr, Schedulers: []string{schedAddr}, CallTimeout: time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err = gw.Start()
	started("applet", addr, err, gw.Close)

	return tr, fleet
}

// garbagePayloads are the deterministic seeds: nothing at all, a string
// whose length prefix promises more than follows, a 0xFFFFFFFF length or
// count, the same after one well-formed string, a run of zeros (empty
// strings and zero counts all the way down, which is what reaches the
// deepest decode paths), and a lone byte.
var zeros = make([]byte, 64)

var garbagePayloads = [][]byte{
	nil,
	{0, 0, 0, 16, 'a', 'b', 'c'},
	{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8},
	{0, 0, 0, 1, 'x', 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},
	zeros,
	{1},
}

// sendGarbage delivers one payload as one message type and requires the
// daemon to have answered it — a reply or a *wire.RemoteError, never a
// dropped connection or a time-out — and to answer a ping afterwards.
func sendGarbage(t *testing.T, wc *wire.Client, d daemonUnderFuzz, typ wire.MsgType, payload []byte) {
	t.Helper()
	resp, err := wc.Call(d.addr, wire.NewRawRequest(typ, payload), 5*time.Second)
	var remote *wire.RemoteError
	switch {
	case err == nil:
		resp.Release()
	case !errors.As(err, &remote):
		t.Fatalf("%s: %s with %d-byte payload %x: not answered: %v", d.name, wire.MsgName(typ), len(payload), payload, err)
	}
	if _, err := wc.Ping(d.addr, 5*time.Second); err != nil {
		t.Fatalf("%s: no ping after %s with payload %x: %v", d.name, wire.MsgName(typ), payload, err)
	}
}

// TestEveryHandlerSurvivesGarbage is FuzzEveryHandler's deterministic
// seed run, plus the check a fuzz worker cannot make: closing the fleet
// leaks no goroutine.
func TestEveryHandlerSurvivesGarbage(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("fleet", func(t *testing.T) {
		tr, fleet := bootEveryDaemon(t)
		wc := wire.NewClient(time.Second)
		wc.Transport = tr
		defer wc.Close()
		for _, d := range fleet {
			for _, m := range wire.Messages() {
				for _, p := range garbagePayloads {
					sendGarbage(t, wc, d, m.Type, p)
				}
			}
		}
	})
	// The subtest's cleanups have closed every daemon.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked on Close: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// FuzzEveryHandler lets the fuzzer choose the daemon, the message type
// (an index into the table, so every input lands on a declared row) and
// the payload. The fleet is booted once per worker.
func FuzzEveryHandler(f *testing.F) {
	tr, fleet := bootEveryDaemon(f)
	wc := wire.NewClient(time.Second)
	wc.Transport = tr
	f.Cleanup(wc.Close)
	msgs := wire.Messages()
	// Seed every (daemon, row) pair once and every payload shape once;
	// the deterministic test above runs the full product.
	for d := range fleet {
		for m := range msgs {
			f.Add(uint8(d), uint8(m), zeros)
		}
	}
	for _, p := range garbagePayloads {
		f.Add(uint8(0), uint8(0), p)
	}
	f.Fuzz(func(t *testing.T, daemon, msg uint8, payload []byte) {
		sendGarbage(t, wc, fleet[int(daemon)%len(fleet)], msgs[int(msg)%len(msgs)].Type, payload)
	})
}
