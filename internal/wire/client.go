package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/telemetry"
)

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
	// means TCP. Fault injection and tests wrap a Transport to corrupt,
	// delay, partition or count the connections it opens.
	Transport Transport
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
	tr := c.Transport
	if tr == nil {
		tr = TCP
	}
	cc, err := DialOn(tr, addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.conns[addr] = cc
	return cc, nil
}

// callFamily returns the cached "wire.client.call" span family, creating
// it on first use once Metrics is set (nil before then).
func (c *Client) callFamily() *telemetry.SpanFamily {
	f := c.callFam.Load()
	if f == nil && c.Metrics != nil {
		f = c.Metrics.SpanFamily("wire.client.call")
		c.callFam.Store(f)
	}
	return f
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
	// Only sampled contexts get call/attempt spans: an unsampled trace
	// records nothing anywhere by design.
	tr, name := spanTracer(c.Tracer, req.Trace, "wire.call.", req.Type)
	op := StartOp(c.callFamily(), tr, name, req.Trace)
	op.Annotate("addr", addr)
	resp, outcome, retries, err := c.call(addr, req, timeout, tr, op.Context())
	req.Release() // ladder done: retransmissions, if any, are over
	if retries > 0 {
		c.Metrics.Counter("wire.client.retries").Add(int64(retries))
		op.Annotate("retries", itoa(uint64(retries)))
	}
	op.End(outcome)
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

// Go issues req to addr on the cached (pipelined) connection without
// waiting; the returned PendingCall's Wait collects the reply, the
// timeout, or the connection's failure, and must be called exactly once.
// Go takes ownership of req and releases it once it is dispatched. There
// is no retry ladder on the async path: quorum fan-out and anti-entropy
// layers — the Go callers — own their own redundancy. A connection
// already marked broken is redialed once before dispatch.
func (c *Client) Go(addr string, req *Packet, timeout time.Duration) *PendingCall {
	cc, err := c.conn(addr)
	if err == nil && cc.Broken() != nil {
		c.drop(addr)
		cc, err = c.conn(addr)
	}
	if err != nil {
		req.Release()
		pc := getCall()
		pc.err = err
		return pc
	}
	pc := cc.Go(req, timeout)
	req.Release()
	return pc
}

// call is the retry ladder. It reports the telemetry outcome class and
// the number of retransmissions (attempts beyond the first) alongside
// the result. When tr is non-nil, each transmission attempt is recorded
// as a child span of parent and the attempt span's context rides the
// packet.
func (c *Client) call(addr string, req *Packet, timeout time.Duration, tr Tracer, parent TraceContext) (*Packet, telemetry.Outcome, int, error) {
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
			time.Sleep(pol.BackoffFor(addr, attempt-1))
		}
		// Attempts of an unsampled call record nothing: skip even the
		// zero Op on this per-transmission path.
		var op Op
		if tr != nil {
			op = StartOp(nil, tr, "wire.attempt", parent)
			op.Annotate("attempt", itoa(uint64(attempt)))
			req.Trace = op.Context()
		}
		resp, outcome, done, err := c.attempt(addr, req, timeout, pol)
		if tr != nil {
			op.End(outcome)
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
		return nil, telemetry.OutcomeDialError, errors.Is(err, ErrClientClosed), err
	}
	resp, err = cc.Call(req, timeout)
	if err == nil {
		return resp, telemetry.OutcomeOK, true, nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return nil, telemetry.OutcomeRemoteError, true, err // definitive remote answer
	}
	var sendErr *SendError
	if errors.As(err, &sendErr) {
		// Not fully written: the server cannot have processed it.
		c.drop(addr)
		return nil, telemetry.OutcomeSendError, false, err
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
		return nil, telemetry.OutcomeAmbiguous, true, &AmbiguousError{Addr: addr, Err: err}
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
