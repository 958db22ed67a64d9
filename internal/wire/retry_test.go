package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"everyware/internal/forecast"
)

// flakyServer is a raw packet endpoint that fails the first N requests
// per its failure mode: "close" drops the connection after reading the
// request without replying (ambiguous outcome), "blackhole" swallows the
// request and never replies (timeout). Subsequent requests are echoed.
type flakyServer struct {
	ln      net.Listener
	fails   atomic.Int64
	mode    string
	handled atomic.Int64
}

func newFlakyServer(t *testing.T, failures int64, mode string) (*flakyServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &flakyServer{ln: ln, mode: mode}
	f.fails.Store(failures)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serveConn(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f, ln.Addr().String()
}

func (f *flakyServer) serveConn(nc net.Conn) {
	defer nc.Close()
	for {
		p, err := ReadPacket(nc)
		if err != nil {
			return
		}
		f.handled.Add(1)
		if f.fails.Add(-1) >= 0 {
			switch f.mode {
			case "blackhole":
				continue // swallow the request, never reply
			default: // "close"
				return
			}
		}
		if err := WritePacket(nc, &Packet{Type: p.Type, Tag: p.Tag, Payload: p.Payload}); err != nil {
			return
		}
	}
}

// TestConcurrentCallsShareConn is the regression test for the reply-theft
// bug: goroutines calling through one cached connection must each receive
// the reply bearing their own tag, not consume each other's.
func TestConcurrentCallsShareConn(t *testing.T) {
	srv := NewServer()
	srv.Logf = func(string, ...any) {}
	srv.Register(msgFlaky, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		return &Packet{Type: msgFlaky, Payload: req.Payload}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	c := NewClient(time.Second)
	defer c.Close()
	// Warm the cache so every goroutine shares one *Conn.
	if _, err := c.Ping(addr, time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}

	const goroutines = 16
	const callsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				var e Encoder
				e.PutString(want)
				resp, err := c.Call(addr, &Packet{Type: msgFlaky, Payload: e.Bytes()}, 5*time.Second)
				if err != nil {
					errs <- fmt.Errorf("call %s: %w", want, err)
					return
				}
				got, err := NewDecoder(resp.Payload).String()
				if err != nil || got != want {
					errs <- fmt.Errorf("reply mismatch: got %q want %q (err %v)", got, want, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRetryIdempotentAfterConnClose: an idempotent request whose
// connection dies mid-call is retransmitted up to MaxAttempts and
// eventually succeeds.
func TestRetryIdempotentAfterConnClose(t *testing.T) {
	f, addr := newFlakyServer(t, 2, "close")
	c := NewClient(time.Second)
	defer c.Close()
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}

	resp, err := c.Call(addr, &Packet{Type: msgFlaky}, time.Second)
	if err != nil {
		t.Fatalf("expected retries to succeed, got %v", err)
	}
	if resp.Type != msgFlaky {
		t.Fatalf("unexpected response type %d", resp.Type)
	}
	if n := f.handled.Load(); n != 3 {
		t.Fatalf("server handled %d requests, want 3 (2 failures + 1 success)", n)
	}
}

// TestNonIdempotentNotResentOnAmbiguity: a non-idempotent request whose
// connection breaks after the send must NOT be retransmitted; the caller
// gets an AmbiguousError and the server sees exactly one request.
func TestNonIdempotentNotResentOnAmbiguity(t *testing.T) {
	f, addr := newFlakyServer(t, 1, "close")
	c := NewClient(time.Second)
	defer c.Close()
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}

	_, err := c.Call(addr, &Packet{Type: msgFlakySideEffect}, time.Second)
	var amb *AmbiguousError
	if !errors.As(err, &amb) {
		t.Fatalf("want AmbiguousError, got %v", err)
	}
	// Give any erroneous retransmit a moment to land.
	time.Sleep(50 * time.Millisecond)
	if n := f.handled.Load(); n != 1 {
		t.Fatalf("server handled %d requests, want exactly 1 (no blind resend)", n)
	}
}

// TestRetryTimeoutOnlyIdempotent: timeouts retry under a policy for
// idempotent types and return immediately for side-effecting ones.
func TestRetryTimeoutOnlyIdempotent(t *testing.T) {
	_, addr := newFlakyServer(t, 1, "blackhole")
	c := NewClient(time.Second)
	defer c.Close()
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}

	start := time.Now()
	_, err := c.Call(addr, &Packet{Type: msgFlakySideEffect}, 100*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("want timeout for blackholed non-idempotent call, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("non-idempotent timeout took %v; should not have retried", elapsed)
	}

	_, addr2 := newFlakyServer(t, 1, "blackhole")
	resp, err := c.Call(addr2, &Packet{Type: msgFlaky}, 150*time.Millisecond)
	if err != nil {
		t.Fatalf("idempotent call should retry past the blackholed request: %v", err)
	}
	if resp.Type != msgFlaky {
		t.Fatalf("unexpected response type %d", resp.Type)
	}
}

// TestBackoffForecastDriven: with a TimeoutPolicy attached, the back-off
// base tracks the forecast response time and doubles per retry.
func TestBackoffForecastDriven(t *testing.T) {
	reg := forecast.NewRegistry()
	tp := forecast.NewTimeoutPolicy(reg)
	key := forecast.Key{Resource: "svc:1", Event: "call"}
	for i := 0; i < 8; i++ {
		reg.RecordDuration(key, 200*time.Millisecond)
	}
	p := &RetryPolicy{Timeouts: tp, MaxBackoff: 10 * time.Second}
	b1 := p.BackoffFor("svc:1", 1)
	b2 := p.BackoffFor("svc:1", 2)
	if b1 < 100*time.Millisecond || b1 > time.Second {
		t.Fatalf("first back-off %v not near the 200ms forecast", b1)
	}
	if b2 < 2*b1*9/10 {
		t.Fatalf("second back-off %v did not roughly double %v", b2, b1)
	}
	// No forecast: falls back to BaseBackoff doubling.
	p2 := &RetryPolicy{BaseBackoff: 10 * time.Millisecond}
	if got := p2.BackoffFor("unknown", 3); got != 40*time.Millisecond {
		t.Fatalf("static back-off = %v, want 40ms", got)
	}
}

// TestErrorTypesRenderAndUnwrap pins what the failure-class errors print
// in logs and that errors.Is/As see through them to the transport cause.
func TestErrorTypesRenderAndUnwrap(t *testing.T) {
	cause := errors.New("connection reset by peer")
	for _, tc := range []struct {
		err    error
		want   string
		unwrap error
	}{
		{&AmbiguousError{Addr: "10.0.0.1:9101", Err: cause},
			"wire: call to 10.0.0.1:9101 outcome unknown (request sent, no reply): connection reset by peer", cause},
		{&SendError{Err: cause}, "wire: send failed: connection reset by peer", cause},
		{&RemoteError{Msg: "no handler for message type"}, "wire: remote error: no handler for message type", nil},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%T.Error() = %q, want %q", tc.err, got, tc.want)
		}
		if got := errors.Unwrap(tc.err); got != tc.unwrap {
			t.Errorf("errors.Unwrap(%T) = %v, want %v", tc.err, got, tc.unwrap)
		}
		if tc.unwrap != nil && !errors.Is(fmt.Errorf("call: %w", tc.err), cause) {
			t.Errorf("errors.Is does not reach the cause through %T", tc.err)
		}
	}
}
