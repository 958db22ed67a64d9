package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/telemetry"
)

// DialFunc opens a packet connection to addr within timeout. The default
// is Dial; tests and the fault-injection harness substitute wrappers that
// corrupt, delay, or partition the underlying byte stream.
type DialFunc func(addr string, timeout time.Duration) (*Conn, error)

// Client maintains cached connections to remote services with a bounded,
// idempotency-aware retry policy. EveryWare components use a Client to
// talk to schedulers, Gossips, persistent state managers, and logging
// servers without re-dialing per request.
type Client struct {
	mu          sync.Mutex
	conns       map[string]*Conn
	closed      bool
	DialTimeout time.Duration
	// Transport selects the substrate connections are opened on. Nil
	// means TCP. Ignored when Dialer is set.
	Transport Transport
	// Dialer overrides how connections are opened (fault injection,
	// tests). Nil means dialing the Transport directly.
	Dialer DialFunc
	// Retry, when set, governs retransmission: bounded attempts with
	// forecast-driven exponential back-off. Nil preserves the historical
	// single-redial behaviour (one retransmit on a fresh connection),
	// minus the unsafe part: a non-idempotent request whose delivery
	// state is unknown is never blindly resent.
	Retry *RetryPolicy
	// Metrics, when set, records per-call latency/outcome spans
	// ("wire.client.call.<outcome>") and the "wire.client.retries"
	// counter. Nil discards.
	Metrics *telemetry.Registry
	// Tracer, when set, records causal trace spans for calls that carry a
	// trace context (req.Trace valid): one span per Call as a child of the
	// caller's span, and one child span per transmission attempt, so
	// retries and back-off are visible in the trace tree. The context
	// propagated on the wire is the attempt span's, making the remote
	// server's spans children of the attempt that reached it. The client
	// never starts a trace itself — roots belong to domain operations.
	// Nil propagates req.Trace unchanged and records nothing.
	Tracer Tracer
	// Window bounds pipelined in-flight calls per connection (0 means
	// DefaultWindow). Applied to connections as they are dialed.
	Window int

	// callFam caches the "wire.client.call" span family so the hot path
	// records latency without per-call name concatenation.
	callFam atomic.Pointer[telemetry.SpanFamily]
}

// NewClient returns a Client with the given connect timeout.
func NewClient(dialTimeout time.Duration) *Client {
	return &Client{conns: make(map[string]*Conn), DialTimeout: dialTimeout}
}

// ErrClientClosed is the cause of the *SendError every call on a closed
// Client returns.
var ErrClientClosed = errors.New("wire: client closed")

func (c *Client) conn(addr string) (*Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Dialing here would cache a connection nobody will ever close.
		return nil, &SendError{Err: ErrClientClosed}
	}
	if cc, ok := c.conns[addr]; ok {
		return cc, nil
	}
	dial := c.Dialer
	if dial == nil {
		tr := c.Transport
		if tr == nil {
			tr = TCP
		}
		dial = func(addr string, timeout time.Duration) (*Conn, error) {
			return DialOn(tr, addr, timeout)
		}
	}
	cc, err := dial(addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	cc.Window = c.Window
	c.conns[addr] = cc
	return cc, nil
}

// callSpan starts a span from the cached "wire.client.call" family,
// creating the family on first use once Metrics is set.
func (c *Client) callSpan() telemetry.Span {
	f := c.callFam.Load()
	if f == nil {
		if c.Metrics == nil {
			return telemetry.Span{}
		}
		f = c.Metrics.SpanFamily("wire.client.call")
		c.callFam.Store(f)
	}
	return f.Start()
}

func (c *Client) drop(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.conns[addr]; ok {
		cc.Close()
		delete(c.conns, addr)
	}
}

// Call sends req to addr and waits up to timeout for the correlated
// response, retrying per the client's RetryPolicy. The retry ladder is
// failure-class aware:
//
//   - dial and send failures always retry (the request was never
//     processed remotely), on a fresh connection;
//   - a broken connection after a complete send retries only if the
//     message type is registered idempotent — otherwise the outcome is
//     unknown and an *AmbiguousError is returned instead of risking a
//     duplicate side effect;
//   - a timeout retries only under an explicit RetryPolicy and only for
//     idempotent types (without one, the caller's forecaster owns the
//     timeout ladder, as in the original design);
//   - a *RemoteError is a definitive answer and never retries.
//
// Call takes ownership of a pooled req (one built with NewRequest): the
// packet is released once the retry ladder is done with it, whatever the
// outcome. Plain &Packet{} literals are untouched. The returned response
// is pooled; the caller releases it after decoding (callers that never
// release are correct but bypass the pools).
func (c *Client) Call(addr string, req *Packet, timeout time.Duration) (*Packet, error) {
	sp := c.callSpan()
	// The request's trace ID (captured before the ladder rewrites
	// req.Trace with attempt contexts and releases the packet) becomes
	// the call histogram's exemplar: a slow call's bucket remembers which
	// trace to pull up.
	tid := req.Trace.TraceID
	var call ActiveSpan
	// Only sampled contexts get call/attempt spans: an unsampled trace
	// records nothing anywhere by design, so the fast path pays for the
	// trailer bytes only (the <5% propagation-overhead budget) — unless
	// the tracer buffers unsampled spans for tail-based promotion.
	if c.Tracer != nil && req.Trace.Valid() && (req.Trace.Sampled || wantUnsampled(c.Tracer)) {
		call = c.Tracer.StartSpan("wire.call."+MsgName(req.Type), req.Trace)
		call.Annotate("addr", addr)
	}
	resp, outcome, retries, err := c.call(addr, req, timeout, call)
	req.Release() // ladder done: retransmissions, if any, are over
	if retries > 0 {
		c.Metrics.Counter("wire.client.retries").Add(int64(retries))
	}
	sp.EndTraced(outcome, tid)
	if call != nil {
		if retries > 0 {
			call.Annotate("retries", itoa(uint64(retries)))
		}
		call.End(string(outcome))
	}
	return resp, err
}

// CallMsg is the pooled-contract convenience around Call: req is encoded
// in place into a pooled buffer, the reply payload is decoded into resp
// (skipped when resp is nil), and both packets are returned to the pools
// before CallMsg returns. Values resp decodes must not alias the reply
// payload — Decoder.Bytes copies for exactly this reason.
func (c *Client) CallMsg(addr string, t MsgType, req Message, resp Decodable, timeout time.Duration) error {
	rp, err := c.Call(addr, NewRequest(t, req), timeout)
	if err != nil {
		return err
	}
	if resp != nil {
		err = rp.Decode(resp)
	}
	rp.Release()
	return err
}

// CallMsgTraced is CallMsg for call sites that propagate a causal trace
// context with the request.
func (c *Client) CallMsgTraced(addr string, t MsgType, tc TraceContext, req Message, resp Decodable, timeout time.Duration) error {
	p := NewRequest(t, req)
	p.Trace = tc
	rp, err := c.Call(addr, p, timeout)
	if err != nil {
		return err
	}
	if resp != nil {
		err = rp.Decode(resp)
	}
	rp.Release()
	return err
}

// Go issues req to addr asynchronously on the cached (pipelined)
// connection and returns a PendingCall completed when the reply arrives,
// the timeout fires, or the connection fails. Go takes ownership of req.
// There is no retry ladder on the async path: quorum fan-out and
// anti-entropy layers — the Go callers — own their own redundancy. A
// connection already marked broken is redialed once before dispatch.
func (c *Client) Go(addr string, req *Packet, timeout time.Duration) *PendingCall {
	cc, err := c.conn(addr)
	if err == nil && cc.Broken() != nil {
		c.drop(addr)
		cc, err = c.conn(addr)
	}
	if err != nil {
		req.Release()
		return failedCall(err)
	}
	return cc.CallAsync(req, timeout)
}

// call is the uninstrumented retry ladder. It reports the telemetry
// outcome class and the number of retransmissions (attempts beyond the
// first) alongside the result. When callSpan is non-nil, each
// transmission attempt is recorded as its child span and the attempt
// span's context rides the packet.
func (c *Client) call(addr string, req *Packet, timeout time.Duration, callSpan ActiveSpan) (*Packet, telemetry.Outcome, int, error) {
	pol := c.Retry
	attempts := 2 // historical behaviour: one retransmit
	if pol != nil {
		attempts = pol.attempts()
	}
	var lastErr error
	lastOutcome := telemetry.OutcomeError
	for attempt := 1; attempt <= attempts; attempt++ {
		retries := attempt - 1
		if attempt > 1 && pol != nil {
			pol.sleep(pol.BackoffFor(addr, attempt-1))
		}
		var asp ActiveSpan
		if callSpan != nil {
			asp = c.Tracer.StartSpan("wire.attempt", callSpan.Context())
			asp.Annotate("attempt", itoa(uint64(attempt)))
			req.Trace = asp.Context()
		}
		resp, outcome, done, err := c.attempt(addr, req, timeout, pol)
		if asp != nil {
			asp.End(string(outcome))
		}
		if done {
			return resp, outcome, retries, err
		}
		lastErr = err
		lastOutcome = outcome
	}
	return nil, lastOutcome, attempts - 1, lastErr
}

// attempt performs one transmission attempt. done reports a definitive
// result (success or a non-retryable failure); otherwise the ladder may
// try again and err/outcome describe this attempt's failure.
func (c *Client) attempt(addr string, req *Packet, timeout time.Duration, pol *RetryPolicy) (resp *Packet, outcome telemetry.Outcome, done bool, err error) {
	cc, err := c.conn(addr)
	if err != nil {
		// Dial failure: nothing was sent, retry freely — unless the client
		// itself is closed, which no retry will change.
		return nil, "dial_error", errors.Is(err, ErrClientClosed), err
	}
	resp, err = cc.Call(req, timeout)
	if err == nil {
		return resp, telemetry.OutcomeOK, true, nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return nil, "remote_error", true, err // definitive remote answer
	}
	var sendErr *SendError
	if errors.As(err, &sendErr) {
		// Not fully written: the server cannot have processed it.
		c.drop(addr)
		return nil, "send_error", false, err
	}
	if IsTimeout(err) {
		// Fully sent, no reply within the interval. The connection
		// stays cached (a late reply is discarded by the demux).
		if pol == nil || !IsIdempotent(req.Type) {
			return nil, telemetry.OutcomeTimeout, true, err
		}
		return nil, telemetry.OutcomeTimeout, false, err
	}
	// Connection broke after a complete send: outcome unknown.
	c.drop(addr)
	if !IsIdempotent(req.Type) {
		return nil, "ambiguous", true, &AmbiguousError{Addr: addr, Err: err}
	}
	return nil, telemetry.OutcomeReset, false, err
}

// Ping measures one request/response round trip to addr. The duration is
// the raw material of the dynamic-benchmarking forecasters.
func (c *Client) Ping(addr string, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	_, err := c.Call(addr, &Packet{Type: MsgPing}, timeout)
	if err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Close closes all cached connections. Every later call fails with a
// *SendError and dials nothing.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for addr, cc := range c.conns {
		cc.Close()
		delete(c.conns, addr)
	}
}
