package pstate

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"everyware/internal/wire"
)

func newTestServer(t *testing.T, maxBytes int64) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0",
		Dir:        t.TempDir(),
		MaxBytes:   maxBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// newTestClient is the smallest client there is: a replica set of one.
func newTestClient(t *testing.T, addr string) *ReplicaSet {
	t.Helper()
	wc := wire.NewClient(time.Second)
	t.Cleanup(wc.Close)
	rs, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: []string{addr}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestStoreFetchRoundTrip(t *testing.T) {
	s := newTestServer(t, 0)
	c := newTestClient(t, s.Addr())
	v, err := c.Store("obj1", "", []byte("payload"))
	if err != nil || v != 1 {
		t.Fatalf("store: v=%d err=%v", v, err)
	}
	o, found, err := c.Fetch("obj1")
	if err != nil || !found {
		t.Fatalf("fetch: found=%v err=%v", found, err)
	}
	if o.Name != "obj1" || string(o.Data) != "payload" || o.Version != 1 {
		t.Fatalf("object = %+v", o)
	}
}

func TestFetchMissing(t *testing.T) {
	s := newTestServer(t, 0)
	c := newTestClient(t, s.Addr())
	_, found, err := c.Fetch("nope")
	if err != nil || found {
		t.Fatalf("found=%v err=%v", found, err)
	}
}

func TestVersionIncrements(t *testing.T) {
	s := newTestServer(t, 0)
	c := newTestClient(t, s.Addr())
	for want := uint64(1); want <= 3; want++ {
		v, err := c.Store("obj", "", []byte(fmt.Sprintf("v%d", want)))
		if err != nil || v != want {
			t.Fatalf("store %d: v=%d err=%v", want, v, err)
		}
	}
}

func TestListAndDelete(t *testing.T) {
	s := newTestServer(t, 0)
	c := newTestClient(t, s.Addr())
	for _, n := range []string{"b", "a", "c"} {
		if _, err := c.Store(n, "", []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("names = %v", names)
	}
	if err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	names, _ = c.List()
	if strings.Join(names, ",") != "a,c" {
		t.Fatalf("names after delete = %v", names)
	}
	// The replica's own view agrees: sorted, the tombstone filtered out.
	if got := strings.Join(s.Names(), ","); got != "a,c" {
		t.Fatalf("server names after delete = %s", got)
	}
	if err := c.Delete("nonexistent"); err != nil {
		t.Fatal("deleting a missing object must be a no-op")
	}
}

func TestQuotaEnforced(t *testing.T) {
	s := newTestServer(t, 10)
	c := newTestClient(t, s.Addr())
	if _, err := c.Store("small", "", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Store("big", "", []byte("1234567890x"))
	var re *wire.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "quota") {
		t.Fatalf("err = %v, want quota error", err)
	}
	// Replacing an object counts the delta, not the sum.
	if _, err := c.Store("small", "", []byte("1234567890")); err != nil {
		t.Fatalf("replace within quota failed: %v", err)
	}
	if used, quota := s.Usage(); used != 10 || quota != 10 {
		t.Fatalf("usage = %d/%d", used, quota)
	}
}

func TestValidatorRejectsBadObject(t *testing.T) {
	class := "test/positive_length"
	err := RegisterValidator(class, func(name string, data []byte) error {
		if len(data) == 0 {
			return fmt.Errorf("empty object")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterValidator(class, func(string, []byte) error { return nil }); err == nil {
		t.Fatal("duplicate validator registration must fail")
	}
	s := newTestServer(t, 0)
	c := newTestClient(t, s.Addr())
	if _, err := c.Store("ok", class, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err = c.Store("bad", class, nil)
	var re *wire.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "validation failed") {
		t.Fatalf("err = %v, want validation failure", err)
	}
	if _, found, _ := c.Fetch("bad"); found {
		t.Fatal("rejected object must not be stored")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Store("survivor", "cls", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Store("survivor", "cls", []byte("still here v2")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// The application lost all its processes; a new manager at the same
	// directory must recover the state.
	s2, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	o := s2.Fetch("survivor")
	if o == nil || string(o.Data) != "still here v2" || o.Version != 2 {
		t.Fatalf("recovered object = %+v", o)
	}
	used, _ := s2.Usage()
	if used != int64(len("still here v2")) {
		t.Fatalf("recovered usage = %d", used)
	}
}

func TestCorruptFileSkippedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Store("good", "", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	// Drop a corrupt file alongside.
	if err := writeFile(dir+"/deadbeef.obj", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if o := s2.Fetch("good"); o == nil || string(o.Data) != "fine" {
		t.Fatal("good object lost to corrupt sibling")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	s := newTestServer(t, 0)
	if _, err := s.Store("", "", []byte("x")); err == nil {
		t.Fatal("empty name must fail")
	}
}

func TestServerRequiresDir(t *testing.T) {
	if _, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing dir must fail")
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

// osWriteFile is an indirection kept small for test readability.
func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// TestTornWriteRecovered simulates a torn write — a framed object file
// truncated mid-body, as a crash or fault-injected connection tear would
// leave it — and verifies the recovery scan quarantines it instead of
// serving garbage, while intact siblings survive.
func TestTornWriteRecovered(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Store("intact", "", []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Store("victim", "", []byte("about to be torn apart")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Tear the victim's file: keep the frame header but cut the body, so
	// only the checksum can reveal the damage.
	victim := s1.fileFor("victim")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	// And leave an orphaned temp file from an interrupted write.
	if err := os.WriteFile(s1.fileFor("intact")+".tmp", []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if o := s2.Fetch("intact"); o == nil || string(o.Data) != "whole" {
		t.Fatalf("intact object lost: %+v", o)
	}
	if o := s2.Fetch("victim"); o != nil {
		t.Fatalf("torn object served: %+v", o)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("torn file not quarantined: %v", err)
	}
	if _, err := os.Stat(s1.fileFor("intact") + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file not removed by recovery scan")
	}
	// A fresh store over the quarantined name works and survives another
	// restart.
	if _, err := s2.Store("victim", "", []byte("restored")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if o := s3.Fetch("victim"); o == nil || string(o.Data) != "restored" {
		t.Fatalf("restored object lost: %+v", o)
	}
}
