package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Message types the wire tests serve and send. They are declared in the
// table like any other (Server.Register refuses an undeclared type), in
// the 200s, clear of every service package the table test imports.
const (
	benchEchoMsg       MsgType = 200
	msgGate            MsgType = 201
	msgEcho            MsgType = 202
	msgFail            MsgType = 203
	msgSlow            MsgType = 204
	msgFlaky           MsgType = 240
	msgFlakySideEffect MsgType = 241
)

func init() {
	Define(benchEchoMsg, "test.bench_echo", false)
	Define(msgGate, "test.gate", false)
	Define(msgEcho, "test.echo", false)
	Define(msgFail, "test.fail", false)
	Define(msgSlow, "test.slow", false)
	Define(msgFlaky, "test.flaky", true)
	Define(msgFlakySideEffect, "test.flaky_side_effect", false)
}

func silentServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	s.Logf = func(string, ...any) {}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerPing(t *testing.T) {
	s := silentServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(time.Second)
	defer c.Close()
	rtt, err := c.Ping(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestServerEcho(t *testing.T) {
	s := silentServer(t)
	s.Register(msgEcho, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		return &Packet{Type: msgEcho, Payload: req.Payload}, nil
	}))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(time.Second)
	defer c.Close()
	resp, err := c.Call(addr, &Packet{Type: msgEcho, Payload: []byte("abc")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "abc" {
		t.Fatalf("payload = %q", resp.Payload)
	}
}

func TestServerUnknownTypeReturnsRemoteError(t *testing.T) {
	s := silentServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(time.Second)
	defer c.Close()
	_, err = c.Call(addr, &Packet{Type: 9999}, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestServerHandlerErrorPropagates(t *testing.T) {
	s := silentServer(t)
	s.Register(msgFail, HandlerFunc(func(_ string, _ *Packet) (*Packet, error) {
		return nil, fmt.Errorf("not a counter example")
	}))
	addr, _ := s.Listen("127.0.0.1:0")
	c := NewClient(time.Second)
	defer c.Close()
	_, err := c.Call(addr, &Packet{Type: msgFail}, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "not a counter example" {
		t.Fatalf("err = %v", err)
	}
}

func TestCallTimeoutOnSilentHandler(t *testing.T) {
	s := silentServer(t)
	s.Register(msgSlow, HandlerFunc(func(_ string, _ *Packet) (*Packet, error) {
		time.Sleep(500 * time.Millisecond)
		return &Packet{Type: msgSlow}, nil
	}))
	addr, _ := s.Listen("127.0.0.1:0")
	c := NewClient(time.Second)
	defer c.Close()
	_, err := c.Call(addr, &Packet{Type: msgSlow}, 30*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestCallDiscardsStaleResponses(t *testing.T) {
	s := silentServer(t)
	var delay time.Duration = 200 * time.Millisecond
	var mu sync.Mutex
	s.Register(msgSlow, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		mu.Lock()
		d := delay
		delay = 0 // only the first call is slow
		mu.Unlock()
		time.Sleep(d)
		return &Packet{Type: msgSlow, Payload: req.Payload}, nil
	}))
	addr, _ := s.Listen("127.0.0.1:0")
	conn, err := DialOn(TCP, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// First call times out; its response arrives later on the wire.
	if _, err := conn.Call(&Packet{Type: msgSlow, Payload: []byte("old")}, 20*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("first call: err = %v, want timeout", err)
	}
	// Second call must skip the stale "old" response and return "new".
	resp, err := conn.Call(&Packet{Type: msgSlow, Payload: []byte("new")}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "new" {
		t.Fatalf("payload = %q, want new", resp.Payload)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	s := silentServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(time.Second)
	defer c.Close()
	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Restart on the same port.
	s2 := silentServer(t)
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := silentServer(t)
	s.Register(msgEcho, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		return &Packet{Type: msgEcho, Payload: req.Payload}, nil
	}))
	addr, _ := s.Listen("127.0.0.1:0")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(time.Second)
			defer c.Close()
			for j := 0; j < 20; j++ {
				want := fmt.Sprintf("c%d-%d", i, j)
				resp, err := c.Call(addr, &Packet{Type: msgEcho, Payload: []byte(want)}, 2*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if string(resp.Payload) != want {
					errs <- fmt.Errorf("got %q want %q", resp.Payload, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer()
	s.Logf = func(string, ...any) {}
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialFailsFastOnNoListener(t *testing.T) {
	_, err := DialOn(TCP, "127.0.0.1:1", 200*time.Millisecond)
	if err == nil {
		t.Fatal("expected dial error")
	}
}

func TestIsTimeout(t *testing.T) {
	if !IsTimeout(&TimeoutError{Op: "x", Addr: "y"}) {
		t.Fatal("TimeoutError must be a timeout")
	}
	if IsTimeout(errors.New("plain")) {
		t.Fatal("plain error must not be a timeout")
	}
	wrapped := fmt.Errorf("outer: %w", &TimeoutError{Op: "x", Addr: "y"})
	if !IsTimeout(wrapped) {
		t.Fatal("wrapped TimeoutError must be a timeout")
	}
	if IsTimeout(nil) {
		t.Fatal("nil must not be a timeout")
	}
}

// TestIdleTimeoutClosesQuietConnections: the server closes a connection
// that stays quiet past IdleTimeout, over real sockets and over the mem
// transport alike, and a Client redials transparently.
func TestIdleTimeoutClosesQuietConnections(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{{"tcp", TCP}, {"mem", NewMemTransport()}} {
		t.Run(tc.name, func(t *testing.T) {
			s := silentServer(t)
			s.Transport = tc.tr
			s.IdleTimeout = 100 * time.Millisecond
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := DialOn(tc.tr, addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Call(&Packet{Type: MsgPing}, time.Second); err != nil {
				t.Fatal(err)
			}
			// The server drops the quiet connection; the raw Conn's demux
			// sees the close and marks it broken...
			for deadline := time.Now().Add(2 * time.Second); conn.Broken() == nil; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("server never closed the idle connection")
				}
			}
			// ...but the pooled Client reconnects transparently.
			c := NewClient(time.Second)
			c.Transport = tc.tr
			defer c.Close()
			if _, err := c.Ping(addr, time.Second); err != nil {
				t.Fatalf("client reconnect after idle close: %v", err)
			}
		})
	}
}

// TestClientClosedStaysClosed: a Call or Go on a closed client fails with
// a *SendError instead of re-dialing — a connection dialed after Close
// would be cached where nobody will ever close it, and its demux
// goroutine would outlive the daemon.
func TestClientClosedStaysClosed(t *testing.T) {
	s := silentServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	c := NewClient(time.Second)
	c.Retry = &RetryPolicy{MaxAttempts: 4}
	dials := &dialCounter{Transport: TCP}
	c.Transport = dials
	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	dialed := dials.n.Load()

	var sendErr *SendError
	if _, err := c.Call(addr, &Packet{Type: MsgPing}, time.Second); !errors.As(err, &sendErr) || !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Call on a closed client: err = %v, want *SendError wrapping ErrClientClosed", err)
	}
	if _, err := c.Go(addr, &Packet{Type: MsgPing}, time.Second).Wait(); !errors.As(err, &sendErr) || !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Go on a closed client: err = %v, want *SendError wrapping ErrClientClosed", err)
	}
	if got := dials.n.Load(); got != dialed {
		t.Fatalf("closed client dialed %d more times", got-dialed)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}

// dialCounter is a Transport that counts the dials made through it.
type dialCounter struct {
	Transport
	n atomic.Int64
}

func (t *dialCounter) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.n.Add(1)
	return t.Transport.Dial(addr, timeout)
}
