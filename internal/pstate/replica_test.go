package pstate

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"everyware/internal/wire"
)

// newPeeredServers starts n managers in fresh directories with every
// sibling listed as an anti-entropy peer and a SyncInterval long enough
// that repair only happens when a test calls SyncNow explicitly.
func newPeeredServers(t *testing.T, n int) []*Server {
	t.Helper()
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		s, err := NewServer(ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			Dir:          t.TempDir(),
			SyncInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		srvs[i] = s
		addrs[i] = addr
	}
	for i, s := range srvs {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s.SetPeers(peers)
	}
	return srvs
}

func addrsOf(srvs []*Server) []string {
	out := make([]string, len(srvs))
	for i, s := range srvs {
		out[i] = s.Addr()
	}
	return out
}

func newReplicaSet(t *testing.T, srvs []*Server) *ReplicaSet {
	t.Helper()
	wc := wire.NewClient(time.Second)
	t.Cleanup(wc.Close)
	rs, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: addrsOf(srvs), Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestQuorumWriteReadRoundTrip(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	rs := newReplicaSet(t, srvs)
	ver, err := rs.Store("obj", "cls", []byte("payload"))
	if err != nil || ver != 1 {
		t.Fatalf("store: v=%d err=%v", ver, err)
	}
	o, found, err := rs.Fetch("obj")
	if err != nil || !found || string(o.Data) != "payload" || o.Version != 1 {
		t.Fatalf("fetch: o=%+v found=%v err=%v", o, found, err)
	}
	// An acked write is on at least W replicas.
	holders := 0
	for _, s := range srvs {
		if s.Fetch("obj") != nil {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("acked write on %d replicas, want >= write quorum (2)", holders)
	}
}

// TestQuorumReadRepairsStaleReplica: a replica that missed a write is
// healed by the next quorum read touching it.
func TestQuorumReadRepairsStaleReplica(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	rs := newReplicaSet(t, srvs)
	// Seed all replicas at v1, then advance only two of them to v2 —
	// srvs[2] is now stale.
	if _, err := rs.Store("k", "", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fresh := &Object{Name: "k", Version: 2, Data: []byte("v2")}
	for _, s := range srvs[:2] {
		if _, _, err := s.StoreAt(fresh); err != nil {
			t.Fatal(err)
		}
	}
	o, found, err := rs.Fetch("k")
	if err != nil || !found || string(o.Data) != "v2" {
		t.Fatalf("fetch: o=%+v found=%v err=%v", o, found, err)
	}
	if got := srvs[2].Fetch("k"); got == nil || got.Version != 2 {
		t.Fatalf("read repair did not heal stale replica: %+v", got)
	}
}

// TestSpoolFlushOnReconnect: with every replica unreachable a write is
// spooled (ErrSpooled — parked, not durable), and flushes once replicas
// come back.
func TestSpoolFlushOnReconnect(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	wc := wire.NewClient(200 * time.Millisecond)
	t.Cleanup(wc.Close)
	addrs := addrsOf(srvs)
	refuse := true
	wc.Transport = dialHook(func(addr string, timeout time.Duration) (net.Conn, error) {
		if refuse {
			return nil, fmt.Errorf("test: unreachable")
		}
		return wire.TCP.Dial(addr, timeout)
	})
	rs, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: addrs, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Store("parked", "", []byte("later")); !errors.Is(err, ErrSpooled) {
		t.Fatalf("err = %v, want ErrSpooled", err)
	}
	if rs.SpoolDepth() != 1 {
		t.Fatalf("spool depth = %d, want 1", rs.SpoolDepth())
	}
	// Read-your-writes: the spooled record is visible to this client even
	// while no replica holds it.
	if o, found, err := rs.Fetch("parked"); err != nil || !found || string(o.Data) != "later" {
		t.Fatalf("spooled read: o=%+v found=%v err=%v", o, found, err)
	}
	refuse = false
	if n := rs.FlushSpool(); n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
	if rs.SpoolDepth() != 0 {
		t.Fatalf("spool depth after flush = %d", rs.SpoolDepth())
	}
	holders := 0
	for _, s := range srvs {
		if s.Fetch("parked") != nil {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("flushed write on %d replicas, want >= 2", holders)
	}
}

// TestAntiEntropyConvergesReplicas: a write applied to one replica alone
// spreads to the fleet in one SyncNow round, and the digests match
// exactly afterwards.
func TestAntiEntropyConvergesReplicas(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	if _, _, err := srvs[0].StoreAt(&Object{Name: "solo", Version: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if n, err := srvs[0].SyncNow(); err != nil || n != 2 {
		t.Fatalf("sync: repairs=%d err=%v", n, err)
	}
	ref := srvs[0].Digest()
	for i, s := range srvs[1:] {
		if o := s.Fetch("solo"); o == nil || string(o.Data) != "x" {
			t.Fatalf("replica %d missing repaired object: %+v", i+1, o)
		}
		if !DigestsEqual(ref, s.Digest()) {
			t.Fatalf("replica %d digest diverged: %v vs %v", i+1, ref, s.Digest())
		}
	}
}

// TestTombstoneConvergence is the Delete-divergence regression: a replica
// that missed a delete must not resurrect the object through repair — the
// tombstone travels the anti-entropy channel and wins.
func TestTombstoneConvergence(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	rs := newReplicaSet(t, srvs)
	if _, err := rs.Store("doomed", "", []byte("bye")); err != nil {
		t.Fatal(err)
	}
	// Make sure every replica holds the live object before the delete.
	if _, err := srvs[0].SyncNow(); err != nil {
		t.Fatal(err)
	}
	// Delete through the quorum client, then wipe the tombstone from one
	// replica's view by never delivering it there: apply the delete only
	// on the first two replicas directly.
	for _, s := range srvs[:2] {
		if err := s.Delete("doomed"); err != nil {
			t.Fatal(err)
		}
	}
	if o := srvs[2].Fetch("doomed"); o == nil {
		t.Fatal("test setup broken: third replica should still hold the object")
	}
	// The stale replica syncs: it must pull the tombstone, not push its
	// stale live copy over the deletion.
	if _, err := srvs[2].SyncNow(); err != nil {
		t.Fatal(err)
	}
	if o := srvs[2].Fetch("doomed"); o != nil {
		t.Fatalf("deleted object resurrected on stale replica: %+v", o)
	}
	// And the deletion stays deleted after further rounds from every side.
	for _, s := range srvs {
		if _, err := s.SyncNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range srvs {
		if o := s.Fetch("doomed"); o != nil {
			t.Fatalf("replica %d resurrected deleted object: %+v", i, o)
		}
		if !DigestsEqual(srvs[0].Digest(), s.Digest()) {
			t.Fatalf("replica %d digest diverged after delete", i)
		}
	}
	// A quorum read agrees the object is gone.
	if _, found, err := rs.Fetch("doomed"); err != nil || found {
		t.Fatalf("quorum read after delete: found=%v err=%v", found, err)
	}
}

// TestQuorumDeleteAndList drives the quorum client's Delete and List: the
// delete writes a tombstone one version above the object, a replica that
// missed it converges through anti-entropy, List omits tombstoned names
// whichever replicas answer, and a delete that cannot reach a write
// quorum is spooled and lands after FlushSpool.
func TestQuorumDeleteAndList(t *testing.T) {
	srvs := newPeeredServers(t, 3)
	unreachable := make(map[string]bool)
	conns := make(map[string]net.Conn)
	wc := wire.NewClient(200 * time.Millisecond)
	t.Cleanup(wc.Close)
	wc.Transport = dialHook(func(addr string, timeout time.Duration) (net.Conn, error) {
		if unreachable[addr] {
			return nil, fmt.Errorf("test: unreachable")
		}
		cc, err := wire.TCP.Dial(addr, timeout)
		conns[addr] = cc
		return cc, err
	})
	rs, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: addrsOf(srvs), Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cut := func(replicas ...*Server) {
		clear(unreachable)
		for _, s := range replicas {
			unreachable[s.Addr()] = true
			if cc := conns[s.Addr()]; cc != nil {
				cc.Close() // the client finds it broken and re-dials
			}
		}
	}
	wantList := func(when string, want ...string) {
		t.Helper()
		got, err := rs.List()
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("list %s = %v (err %v), want %v", when, got, err, want)
		}
	}
	entry := func(s *Server, name string) DigestEntry {
		for _, ent := range s.Digest() {
			if ent.Name == name {
				return ent
			}
		}
		return DigestEntry{}
	}

	for _, name := range []string{"doomed", "keep"} {
		if ver, err := rs.Store(name, "", []byte(name)); err != nil || ver != 1 {
			t.Fatalf("store %s: v=%d err=%v", name, ver, err)
		}
	}
	if _, err := srvs[0].SyncNow(); err != nil { // every replica holds both at v1
		t.Fatal(err)
	}
	wantList("before the delete", "doomed", "keep")

	// Quorum delete with the third replica out of reach.
	cut(srvs[2])
	if err := rs.Delete("doomed"); err != nil {
		t.Fatalf("delete with 2 of 3 replicas: %v", err)
	}
	for i, s := range srvs[:2] {
		if ent := entry(s, "doomed"); !ent.Tombstone || ent.Version != 2 {
			t.Fatalf("replica %d holds %+v, want a tombstone at version 2", i, ent)
		}
	}
	if ent := entry(srvs[2], "doomed"); ent.Tombstone || ent.Version != 1 {
		t.Fatalf("test setup broken: the cut replica holds %+v, want the live v1", ent)
	}
	wantList("from the two replicas that saw the delete", "keep")
	cut()
	wantList("with the stale replica answering too", "keep") // its live v1 loses to the tombstone
	if _, err := srvs[2].SyncNow(); err != nil {
		t.Fatal(err)
	}
	if ent := entry(srvs[2], "doomed"); !ent.Tombstone || ent.Version != 2 {
		t.Fatalf("stale replica did not converge on the tombstone: %+v", ent)
	}
	if !DigestsEqual(srvs[0].Digest(), srvs[2].Digest()) {
		t.Fatal("digests diverged after the delete converged")
	}

	// No write quorum: the delete is parked, not lost.
	cut(srvs[1], srvs[2])
	if err := rs.Delete("keep"); !errors.Is(err, ErrSpooled) {
		t.Fatalf("delete with 1 of 3 replicas: err = %v, want ErrSpooled", err)
	}
	if rs.SpoolDepth() != 1 {
		t.Fatalf("spool depth = %d, want 1", rs.SpoolDepth())
	}
	cut()
	if n := rs.FlushSpool(); n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
	holders := 0
	for _, s := range srvs {
		if entry(s, "keep").Tombstone {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("flushed delete on %d replicas, want >= 2", holders)
	}
	wantList("after both deletes")
}

// TestPersistCrashPoints kills the manager at every crash site inside
// persist and restarts it from the same directory. The restarted manager
// must serve either the old or the new object — never a torn or
// CRC-invalid one — and the recovery scan must quarantine torn-final
// debris.
func TestPersistCrashPoints(t *testing.T) {
	for _, site := range CrashSites() {
		site := site
		t.Run(string(site), func(t *testing.T) {
			dir := t.TempDir()
			armed := false
			s1, err := NewServer(ServerConfig{
				ListenAddr:   "127.0.0.1:0",
				Dir:          dir,
				SyncInterval: time.Hour,
				CrashPoints: func(at CrashSite) error {
					if armed && at == site {
						armed = false
						return fmt.Errorf("test: crash at %s", at)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// v1 lands cleanly; the crash is armed for the v2 write.
			if _, err := s1.Store("key", "", []byte("old")); err != nil {
				t.Fatal(err)
			}
			armed = true
			if _, err := s1.Store("key", "", []byte("newdata")); err == nil {
				t.Fatalf("store did not observe the %s crash", site)
			}
			// The process "died": discard the instance and restart over the
			// same directory.
			s1.Close()
			s2, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: dir, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			o := s2.Fetch("key")
			switch site {
			case CrashAfterRename:
				// The write was durable; only the acknowledgement died.
				if o == nil || string(o.Data) != "newdata" || o.Version != 2 {
					t.Fatalf("after-rename crash must preserve the new object, got %+v", o)
				}
			case CrashTornFinal:
				// The torn frame clobbered the live name; the scan must
				// quarantine it rather than serve garbage.
				if o != nil {
					t.Fatalf("torn final write served: %+v", o)
				}
				if _, err := os.Stat(s2.fileFor("key") + ".corrupt"); err != nil {
					t.Fatalf("torn file not quarantined: %v", err)
				}
				if got := s2.Metrics().Counter("pstate.quarantined").Value(); got != 1 {
					t.Fatalf("quarantine counter = %d, want 1", got)
				}
			default:
				// Every earlier site must leave the old object intact.
				if o == nil || string(o.Data) != "old" || o.Version != 1 {
					t.Fatalf("%s crash lost the old object, got %+v", site, o)
				}
			}
			// No temp debris survives the recovery scan.
			if _, err := os.Stat(s2.fileFor("key") + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp debris survived recovery after %s", site)
			}
			// The manager is fully writable again after recovery.
			if _, err := s2.Store("key", "", []byte("recovered")); err != nil {
				t.Fatal(err)
			}
			if o := s2.Fetch("key"); o == nil || string(o.Data) != "recovered" {
				t.Fatalf("post-recovery store lost: %+v", o)
			}
		})
	}
}

// TestReplicaSetQuorumImpossible rejects configurations asking for more
// acks than replicas exist.
func TestReplicaSetQuorumImpossible(t *testing.T) {
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	if _, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: []string{"a"}, WriteQuorum: 2}); err == nil {
		t.Fatal("impossible quorum accepted")
	}
}

// dialHook is a TCP Transport whose dials go through a test hook.
type dialHook func(addr string, timeout time.Duration) (net.Conn, error)

func (f dialHook) Dial(addr string, timeout time.Duration) (net.Conn, error) { return f(addr, timeout) }
func (dialHook) Listen(addr string) (net.Listener, error)                    { return wire.TCP.Listen(addr) }
