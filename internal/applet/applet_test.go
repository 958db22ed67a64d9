package applet

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/sched"
	"everyware/internal/wire"
)

func startGatewayWithScheduler(t *testing.T, n, k int, steps int64) (*Gateway, *sched.Server) {
	t.Helper()
	sv := sched.NewServer(sched.ServerConfig{N: n, K: k, DefaultSteps: steps})
	addr, err := sv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	g, err := NewGateway(GatewayConfig{ListenAddr: "127.0.0.1:0", Schedulers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, sv
}

func TestParcelRoundTrip(t *testing.T) {
	p := Parcel{ID: 9, N: 17, K: 4, Heur: "tabu", Seed: 3, Steps: 500, State: []byte{1, 2}}
	got, err := DecodeParcel(EncodeParcel(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.N != p.N || got.K != p.K || got.Heur != p.Heur ||
		got.Seed != p.Seed || got.Steps != p.Steps || !bytes.Equal(got.State, p.State) {
		t.Fatalf("got %+v", got)
	}
}

func TestQuickParcelResultRoundTrip(t *testing.T) {
	f := func(id string, pid uint64, ops int64, conflicts uint16, found bool, state []byte) bool {
		r := ParcelResult{AppletID: id, ParcelID: pid, Ops: ops,
			Conflicts: int(conflicts), Found: found, State: state}
		got, err := DecodeParcelResult(EncodeParcelResult(r))
		return err == nil && got.AppletID == id && got.ParcelID == pid &&
			got.Ops == ops && got.Conflicts == int(conflicts) &&
			got.Found == found && bytes.Equal(got.State, state)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayRequiresScheduler(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("gateway without schedulers must fail")
	}
}

func TestAppletSessionEndToEnd(t *testing.T) {
	g, sv := startGatewayWithScheduler(t, 5, 3, 5000)
	a := NewApplet("browser-1", g.Addr())
	defer a.Close()
	totalFound := 0
	for i := 0; i < 20 && totalFound == 0; i++ {
		found, err := a.RunParcels(1)
		if err != nil {
			t.Fatal(err)
		}
		totalFound += found
	}
	if totalFound == 0 {
		t.Fatal("applet never found the easy K5 counter-example")
	}
	if a.Ops() <= 0 {
		t.Fatal("no ops recorded")
	}
	// The scheduler verified and recorded the find, attributed to the
	// applet's client identity under the java infrastructure.
	if len(sv.Found()) == 0 {
		t.Fatal("scheduler recorded no counter-example")
	}
	if sv.Found()[0].Finder != "applet-browser-1" {
		t.Fatalf("finder = %q", sv.Found()[0].Finder)
	}
	parcels, returns, founds := g.Stats()
	if parcels == 0 || returns == 0 || founds == 0 {
		t.Fatalf("gateway stats = %d, %d, %d", parcels, returns, founds)
	}
}

func TestMultipleAppletsShareGateway(t *testing.T) {
	g, sv := startGatewayWithScheduler(t, 5, 3, 2000)
	for i := 0; i < 3; i++ {
		a := NewApplet(string(rune('a'+i)), g.Addr())
		if _, err := a.RunParcels(2); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}
	reports, _, clients := sv.Stats()
	if reports < 6 {
		t.Fatalf("reports = %d", reports)
	}
	if clients != 3 {
		t.Fatalf("scheduler sees %d clients, want 3", clients)
	}
}

func TestReturnUnknownParcelRejected(t *testing.T) {
	g, _ := startGatewayWithScheduler(t, 5, 3, 100)
	a := NewApplet("rogue", g.Addr())
	defer a.Close()
	res := ParcelResult{AppletID: "rogue", ParcelID: 999, Ops: 1}
	_, err := a.wc.Call(g.Addr(),
		&wire.Packet{Type: MsgReturnParcel, Payload: EncodeParcelResult(res)}, a.Timeout)
	if err == nil {
		t.Fatal("unknown parcel must be rejected")
	}
}

// TestGatewayCloseIsCleanAndRaceSafe: concurrent Close calls do not
// panic, a closed gateway's client dials nothing, and no goroutine is
// left.
func TestGatewayCloseIsCleanAndRaceSafe(t *testing.T) {
	base := runtime.NumGoroutine()
	sv := sched.NewServer(sched.ServerConfig{N: 5, K: 3, DefaultSteps: 100})
	addr, err := sv.Start()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{ListenAddr: "127.0.0.1:0", Schedulers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	dials := &dialCounter{Transport: wire.TCP}
	g.wc.Transport = dials
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	a := NewApplet("browser-1", g.Addr())
	if _, err := a.RunParcels(2); err != nil {
		t.Fatal(err)
	}
	a.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Close()
		}()
	}
	wg.Wait()

	dialed := dials.n.Load()
	if dialed == 0 {
		t.Fatal("test setup broken: the gateway never dialed its scheduler")
	}
	if _, err := g.reportToScheduler(sched.Report{ClientID: "applet-late", Infra: "java"}); err == nil {
		t.Fatal("a closed gateway still reached its scheduler")
	}
	sv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
	if got := dials.n.Load(); got != dialed {
		t.Fatalf("closed gateway dialed %d more times", got-dialed)
	}
}

// dialCounter is a Transport that counts the dials made through it.
type dialCounter struct {
	wire.Transport
	n atomic.Int64
}

func (t *dialCounter) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.n.Add(1)
	return t.Transport.Dial(addr, timeout)
}
