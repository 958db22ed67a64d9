package pstate

import (
	"fmt"
	"testing"
	"time"

	"everyware/internal/wire"
)

func BenchmarkStoreFetchOverWire(b *testing.B) {
	s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	c, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: []string{s.Addr()}, Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("obj-%d", i%64)
		if _, err := c.Store(name, "", data); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Fetch(name); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplicas starts n peered managers and a quorum client over them.
func benchReplicas(b *testing.B, n int) ([]*Server, *ReplicaSet) {
	b.Helper()
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		s, err := NewServer(ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			Dir:          b.TempDir(),
			SyncInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
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
	wc := wire.NewClient(time.Second)
	b.Cleanup(wc.Close)
	rs, err := NewReplicaSet(wc, ReplicaSetConfig{Addrs: addrs, Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	return srvs, rs
}

// BenchmarkQuorumWrite measures a versioned quorum write over a
// three-replica fleet: version discovery plus parallel store-at fan-out.
func BenchmarkQuorumWrite(b *testing.B) {
	_, rs := benchReplicas(b, 3)
	data := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Store(fmt.Sprintf("obj-%d", i%64), "", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuorumRead measures a reconciling quorum read (all replicas
// already agree, so no read repair fires).
func BenchmarkQuorumRead(b *testing.B) {
	_, rs := benchReplicas(b, 3)
	data := make([]byte, 512)
	for i := 0; i < 64; i++ {
		if _, err := rs.Store(fmt.Sprintf("obj-%d", i), "", data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := rs.Fetch(fmt.Sprintf("obj-%d", i%64)); err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkDigestSync measures one anti-entropy round over a converged
// 64-object fleet — the steady-state cost of the repair timer (digest
// exchange only, no transfers).
func BenchmarkDigestSync(b *testing.B) {
	srvs, rs := benchReplicas(b, 3)
	data := make([]byte, 512)
	for i := 0; i < 64; i++ {
		if _, err := rs.Store(fmt.Sprintf("obj-%d", i), "", data); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := srvs[0].SyncNow(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srvs[i%len(srvs)].SyncNow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreInProcess(b *testing.B) {
	s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Store(fmt.Sprintf("obj-%d", i%64), "", data); err != nil {
			b.Fatal(err)
		}
	}
}
