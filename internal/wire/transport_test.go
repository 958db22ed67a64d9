package wire

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestMemTransportEphemeralAndVerbatimBind(t *testing.T) {
	m := NewMemTransport()
	l1, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr().String() == l2.Addr().String() {
		t.Fatalf("ephemeral binds collided at %s", l1.Addr())
	}
	// Named binds are verbatim: taken while bound, reclaimable after close
	// (the pstate restart-at-same-address path).
	ln, err := m.Listen("g1")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr().String() != "g1" {
		t.Fatalf("named bind at %s, want g1", ln.Addr())
	}
	if _, err := m.Listen("g1"); err == nil {
		t.Fatal("double bind of g1 succeeded")
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("g1"); err != nil {
		t.Fatalf("rebind of g1 after close: %v", err)
	}
}

func TestMemTransportDialUnboundRefused(t *testing.T) {
	m := NewMemTransport()
	if _, err := m.Dial("nobody", time.Second); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestMemTransportDialAfterCloseRefused(t *testing.T) {
	m := NewMemTransport()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dial("svc", time.Second); err == nil {
		t.Fatal("dial to closed address succeeded")
	}
	// A blocked Accept must have been woken with net.ErrClosed too.
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v, want net.ErrClosed", err)
	}
}

func TestMemTransportDoubleCloseErrs(t *testing.T) {
	m := NewMemTransport()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second close: %v, want net.ErrClosed", err)
	}
}

// memPipe returns both ends of a fresh mem connection.
func memPipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	m := NewMemTransport()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	client, err = m.Dial("svc", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close(); l.Close() })
	return client, server
}

// TestMemDeadlineFiresWhileBlocked: a read deadline on an idle mem conn,
// and a write deadline on a writer blocked behind a full buffer, end the
// blocked call when they pass — not when the peer finally closes.
func TestMemDeadlineFiresWhileBlocked(t *testing.T) {
	client, _ := memPipe(t)
	start := time.Now()
	client.SetReadDeadline(start.Add(50 * time.Millisecond))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle read: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("idle read with a 50ms deadline returned after %v", d)
	}

	client, _ = memPipe(t)
	start = time.Now()
	client.SetWriteDeadline(start.Add(50 * time.Millisecond))
	n, err := client.Write(make([]byte, memBufMax+1))
	if !errors.Is(err, os.ErrDeadlineExceeded) || n != memBufMax {
		t.Fatalf("write into a full buffer: n = %d, err = %v; want %d, os.ErrDeadlineExceeded", n, err, memBufMax)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("blocked write with a 50ms deadline returned after %v", d)
	}
}

func TestMemTransportConcurrentDialAccept(t *testing.T) {
	m := NewMemTransport()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const dials = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < dials; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := m.Dial("svc", 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Close()
		}()
	}
	wg.Wait()
}

// FuzzMemTransport drives arbitrary op sequences — bind, dial, close,
// close-again — against the address registry over a small address
// alphabet. Invariants: no panics or deadlocks, dialing a bound address
// succeeds, dialing an unbound or closed one is refused, a first Close
// succeeds, and a second Close reports net.ErrClosed.
func FuzzMemTransport(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 1, 5})
	f.Add([]byte{0, 0, 8, 8, 4, 8})
	f.Add([]byte{3, 7, 11, 15, 3, 11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := NewMemTransport()
		addrs := []string{"a", "b", "c", "d"}
		listeners := make(map[string]net.Listener)
		closed := make(map[string]bool)
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
			for addr, l := range listeners {
				if !closed[addr] {
					l.Close()
				}
			}
		}()
		for _, op := range ops {
			addr := addrs[int(op)%len(addrs)]
			switch (int(op) / len(addrs)) % 4 {
			case 0: // bind
				l, err := m.Listen(addr)
				if _, taken := listeners[addr]; taken && !closed[addr] {
					if err == nil {
						t.Fatalf("double bind of %s succeeded", addr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("bind %s: %v", addr, err)
				}
				// Accepts drain in the background so dials complete even
				// when the queue would fill.
				go func() {
					for {
						c, err := l.Accept()
						if err != nil {
							return
						}
						c.Close()
					}
				}()
				listeners[addr] = l
				closed[addr] = false
			case 1: // dial
				bound := false
				if _, ok := listeners[addr]; ok && !closed[addr] {
					bound = true
				}
				c, err := m.Dial(addr, time.Second)
				if bound && err != nil {
					t.Fatalf("dial bound %s: %v", addr, err)
				}
				if !bound && err == nil {
					t.Fatalf("dial unbound %s succeeded", addr)
				}
				if c != nil {
					conns = append(conns, c)
				}
			case 2: // close
				l, ok := listeners[addr]
				if !ok || closed[addr] {
					continue
				}
				if err := l.Close(); err != nil {
					t.Fatalf("close %s: %v", addr, err)
				}
				closed[addr] = true
			case 3: // close again
				l, ok := listeners[addr]
				if !ok || !closed[addr] {
					continue
				}
				if err := l.Close(); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("second close of %s: %v, want net.ErrClosed", addr, err)
				}
			}
		}
	})
}
