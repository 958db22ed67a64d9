package globus

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"everyware/internal/wire"
)

func testClient(t *testing.T) *wire.Client {
	t.Helper()
	wc := wire.NewClient(2 * time.Second)
	t.Cleanup(wc.Close)
	return wc
}

func startMDS(t *testing.T) *MDS {
	t.Helper()
	m := NewMDS()
	if _, err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func startGASS(t *testing.T, quota int64) *GASS {
	t.Helper()
	g := NewGASS(quota)
	if _, err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func startGatekeeper(t *testing.T, cfg GatekeeperConfig) *Gatekeeper {
	t.Helper()
	g := NewGatekeeper(cfg)
	if _, err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestMDSRegisterQueryOverWire(t *testing.T) {
	m := startMDS(t)
	wc := testClient(t)
	c := NewMDSClient(wc, m.Addr(), time.Second)
	if err := c.Register(Record{Name: "site-a", Arch: "x86-nt", Gatekeeper: "a:1", FreeNodes: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(Record{Name: "site-b", Arch: "sparc", Gatekeeper: "b:1", FreeNodes: 4}); err != nil {
		t.Fatal(err)
	}
	all, err := c.Query("")
	if err != nil || len(all) != 2 {
		t.Fatalf("all = %v, %v", all, err)
	}
	if all[0].Name != "site-a" || all[1].Name != "site-b" {
		t.Fatalf("sort order: %v", all)
	}
	nt, err := c.Query("x86-nt")
	if err != nil || len(nt) != 1 || nt[0].Gatekeeper != "a:1" {
		t.Fatalf("filtered = %v, %v", nt, err)
	}
}

func TestMDSExpiresStaleRecords(t *testing.T) {
	m := NewMDS()
	now := time.Unix(1000, 0)
	m.svc.Metrics().SetNow(func() time.Time { return now })
	m.TTL = time.Minute
	m.Register(Record{Name: "old", Arch: "x", Gatekeeper: "a:1"})
	now = now.Add(2 * time.Minute)
	if got := m.Query(""); len(got) != 0 {
		t.Fatalf("stale record survived: %v", got)
	}
}

func TestMDSUpsertReplaces(t *testing.T) {
	m := startMDS(t)
	m.Register(Record{Name: "s", Arch: "x", Gatekeeper: "a:1", FreeNodes: 1})
	m.Register(Record{Name: "s", Arch: "x", Gatekeeper: "a:1", FreeNodes: 9})
	got := m.Query("")
	if len(got) != 1 || got[0].FreeNodes != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestGASSPutGetOverWire(t *testing.T) {
	g := startGASS(t, 0)
	wc := testClient(t)
	c := NewGASSClient(wc, g.Addr(), time.Second)
	bin := []byte("ELF pretend binary")
	if err := c.Put("clients/x86-nt/ew-client", bin); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get("clients/x86-nt/ew-client")
	if err != nil || !found || !bytes.Equal(got, bin) {
		t.Fatalf("get = %q, %v, %v", got, found, err)
	}
	_, found, err = c.Get("clients/missing")
	if err != nil || found {
		t.Fatalf("missing: found=%v err=%v", found, err)
	}
}

func TestGASSQuota(t *testing.T) {
	g := startGASS(t, 10)
	if err := g.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := g.Put("b", []byte("123456789")); err == nil {
		t.Fatal("quota must reject")
	}
	// Replacement counts the delta.
	if err := g.Put("a", []byte("1234567890")); err != nil {
		t.Fatal(err)
	}
	if err := g.Put("", []byte("x")); err == nil {
		t.Fatal("empty path must fail")
	}
}

func TestGatekeeperAuthenticateOnly(t *testing.T) {
	gk := startGatekeeper(t, GatekeeperConfig{Name: "ncsa", Arch: "x86-nt", Nodes: 4, Credential: "secret"})
	wc := testClient(t)
	c := NewGRAMClient(wc, gk.Addr(), time.Second)
	ok, arch, free, err := c.Authenticate("secret")
	if err != nil || !ok || arch != "x86-nt" || free != 4 {
		t.Fatalf("auth = %v %q %d %v", ok, arch, free, err)
	}
	ok, _, _, err = c.Authenticate("wrong")
	if err != nil || ok {
		t.Fatalf("bad credential accepted: %v %v", ok, err)
	}
}

func TestGatekeeperSubmitStagesAndLaunches(t *testing.T) {
	gass := startGASS(t, 0)
	bin := []byte("binary-for-nt")
	if err := gass.Put("clients/x86-nt/ew-client", bin); err != nil {
		t.Fatal(err)
	}
	var launched atomic.Int32
	gk := startGatekeeper(t, GatekeeperConfig{
		Name: "ncsa", Arch: "x86-nt", Nodes: 2, Credential: "secret",
		Launch: func(job *Job) (Process, error) {
			if !bytes.Equal(job.Binary, bin) {
				return nil, fmt.Errorf("wrong binary staged")
			}
			launched.Add(1)
			return inertProcess{}, nil
		},
	})
	wc := testClient(t)
	c := NewGRAMClient(wc, gk.Addr(), time.Second)
	id, status, err := c.Submit(JobRequest{
		User: "rich", Credential: "secret",
		BinaryPath: "clients/$(ARCH)/ew-client", // platform variable
		GASSAddr:   gass.Addr(),
	})
	if err != nil || status != JobActive {
		t.Fatalf("submit = %d %v %v", id, status, err)
	}
	if launched.Load() != 1 {
		t.Fatal("launcher never ran")
	}
	if job, ok := gk.Job(id); !ok || job.Status != JobActive || job.Err != "" {
		t.Fatalf("job = %+v found=%v", job, ok)
	}
}

func TestGatekeeperRejectsBadCredentialAndMissingBinary(t *testing.T) {
	gass := startGASS(t, 0)
	gk := startGatekeeper(t, GatekeeperConfig{Name: "s", Arch: "sparc", Nodes: 2, Credential: "secret"})
	wc := testClient(t)
	c := NewGRAMClient(wc, gk.Addr(), time.Second)
	if _, _, err := c.Submit(JobRequest{User: "u", Credential: "bad", BinaryPath: "x", GASSAddr: gass.Addr()}); err == nil {
		t.Fatal("bad credential must fail")
	}
	if _, _, err := c.Submit(JobRequest{User: "u", Credential: "secret", BinaryPath: "missing", GASSAddr: gass.Addr()}); err == nil {
		t.Fatal("missing binary must fail staging")
	}
}

func TestGatekeeperCapacityAndCancel(t *testing.T) {
	gass := startGASS(t, 0)
	if err := gass.Put("bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan uint64, 4)
	gk := startGatekeeper(t, GatekeeperConfig{
		Name: "s", Arch: "a", Nodes: 2,
		Launch: func(job *Job) (Process, error) {
			id := job.ID
			return stopFunc(func() { stopped <- id }), nil
		},
	})
	req := JobRequest{User: "u", BinaryPath: "bin", GASSAddr: gass.Addr()}
	j1, err := gk.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gk.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := gk.Submit(req); err == nil {
		t.Fatal("third submit must exceed capacity")
	}
	if err := gk.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-stopped:
		if id != j1.ID {
			t.Fatalf("stopped job %d, want %d", id, j1.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("process never stopped")
	}
	if got, _ := gk.Job(j1.ID); got.Status != JobCancelled {
		t.Fatalf("status = %v", got.Status)
	}
	// Capacity freed: a new submit succeeds.
	if _, err := gk.Submit(req); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if err := gk.Cancel(9999); err == nil {
		t.Fatal("cancel of unknown job must fail")
	}
}

type stopFunc func()

func (f stopFunc) Stop() { f() }

func TestLightSwitchEndToEnd(t *testing.T) {
	// Figure 5: MDS + GASS + three gatekeepers on different platforms.
	mds := startMDS(t)
	gass := startGASS(t, 0)
	for _, arch := range []string{"x86-nt", "sparc-solaris", "alpha-unix"} {
		if err := gass.Put("clients/"+arch+"/ew-client", []byte("binary "+arch)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	running := map[string]bool{}
	mkGatekeeper := func(name, arch string, nodes int, cred string) *Gatekeeper {
		return startGatekeeper(t, GatekeeperConfig{
			Name: name, Arch: arch, Nodes: nodes, Credential: cred,
			Launch: func(job *Job) (Process, error) {
				key := fmt.Sprintf("%s/%d", name, job.ID)
				mu.Lock()
				running[key] = true
				mu.Unlock()
				return stopFunc(func() {
					mu.Lock()
					delete(running, key)
					mu.Unlock()
				}), nil
			},
		})
	}
	gk1 := mkGatekeeper("ncsa-nt", "x86-nt", 3, "secret")
	gk2 := mkGatekeeper("sdsc-sparc", "sparc-solaris", 2, "secret")
	gk3 := mkGatekeeper("denied-site", "alpha-unix", 5, "other-credential")
	for _, gk := range []*Gatekeeper{gk1, gk2, gk3} {
		mds.Register(gk.Record())
	}

	wc := testClient(t)
	sw := NewLightSwitch(wc, mds.Addr(), gass.Addr(), "rich", "secret", "clients/$(ARCH)/ew-client")
	launched, err := sw.On()
	if err != nil {
		t.Fatal(err)
	}
	// 3 + 2 jobs at authorized sites; the denied site contributes none.
	if len(launched) != 5 {
		t.Fatalf("launched = %d jobs (%v), want 5", len(launched), launched)
	}
	for _, l := range launched {
		if l.Site == "denied-site" {
			t.Fatal("launched at a site that should have failed authentication")
		}
	}
	mu.Lock()
	active := len(running)
	mu.Unlock()
	if active != 5 {
		t.Fatalf("running = %d, want 5", active)
	}
	// Switch off: everything stops.
	if n := sw.Off(); n != 5 {
		t.Fatalf("cancelled = %d, want 5", n)
	}
	mu.Lock()
	active = len(running)
	mu.Unlock()
	if active != 0 {
		t.Fatalf("still running after Off: %d", active)
	}
}

func TestLightSwitchMaxPerSite(t *testing.T) {
	mds := startMDS(t)
	gass := startGASS(t, 0)
	if err := gass.Put("clients/a/bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	gk := startGatekeeper(t, GatekeeperConfig{Name: "big", Arch: "a", Nodes: 10})
	mds.Register(gk.Record())
	wc := testClient(t)
	sw := NewLightSwitch(wc, mds.Addr(), gass.Addr(), "u", "", "clients/$(ARCH)/bin")
	sw.MaxPerSite = 2
	launched, err := sw.On()
	if err != nil || len(launched) != 2 {
		t.Fatalf("launched = %v, %v", launched, err)
	}
}

func TestJobStatusString(t *testing.T) {
	for s, want := range map[JobStatus]string{
		JobPending: "pending", JobActive: "active", JobDone: "done",
		JobFailed: "failed", JobCancelled: "cancelled", 0: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("JobStatus(%d).String() = %q, want %q", s, got, want)
		}
	}
}
