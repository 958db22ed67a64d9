package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWindow is the per-Conn bound on pipelined in-flight calls when
// Conn.Window is zero. The window is admission control, not concurrency:
// calls beyond it wait (up to their timeout) for a slot instead of
// stacking unbounded state on one connection.
const DefaultWindow = 64

// Conn wraps a stream connection with packet semantics and the
// timeout-bounded operations the lingua franca requires. All sends and
// receives are safe for concurrent use; writes are serialized by a mutex
// and reads by a second mutex, matching the paper's request/response
// discipline.
//
// Concurrent Calls on one Conn are multiplexed by correlation tag: the
// first Call starts a demultiplexer goroutine that owns all reads and
// routes each reply to the waiting caller. Calls pipeline — any mix of
// Call and CallAsync shares the connection, bounded by Window. Raw Recv
// must therefore not be mixed with Call on the same Conn.
type Conn struct {
	nc      net.Conn
	wmu     sync.Mutex
	rmu     sync.Mutex
	tagSeq  atomic.Uint64
	oneShot sync.Once

	// Window bounds in-flight pipelined calls on this Conn (0 means
	// DefaultWindow). Set before the first Call.
	Window int

	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	winCh   chan struct{}
	demuxOn bool
	broken  error // terminal read error; all further Calls fail fast
}

// pendingCall is one registered in-flight call. Sync callers wait on ch
// (capacity 1, reused across calls via syncCalls); async callers carry a
// *PendingCall completed under the pending-map lock.
//
// timer is the call's deadline. Sync calls own it exclusively (a
// reusable NewTimer armed after send, disarmed by the caller). Async
// calls use an AfterFunc armed and stopped only under the Conn's
// pending-map lock, because the demux may complete the call the moment
// it is published.
type pendingCall struct {
	ch    chan *Packet
	timer *time.Timer
	async *PendingCall
}

// stopAsyncTimer stops an async call's timeout, if armed. Caller holds
// the pending-map lock.
func (pc *pendingCall) stopAsyncTimer() {
	if pc.timer != nil {
		pc.timer.Stop()
	}
}

// syncCalls pools pendingCall structs for synchronous Calls so the
// per-call channel and deadline timer are reused instead of allocated.
var syncCalls sync.Pool

func getSyncCall() *pendingCall {
	poolGets.Add(1)
	if pc, ok := syncCalls.Get().(*pendingCall); ok {
		return pc
	}
	poolMisses.Add(1)
	return &pendingCall{ch: make(chan *Packet, 1)}
}

// putSyncCall requires pc.ch drained and pc.timer stopped and drained.
func putSyncCall(pc *pendingCall) {
	poolPuts.Add(1)
	syncCalls.Put(pc)
}

// armTimer starts (or re-arms) the call's reusable deadline timer.
func (pc *pendingCall) armTimer(d time.Duration) {
	if pc.timer == nil {
		pc.timer = time.NewTimer(d)
		return
	}
	pc.timer.Reset(d)
}

// disarmTimer stops the timer and drains a tick that already fired, so
// the timer is safe to Reset on the next call.
func (pc *pendingCall) disarmTimer() {
	if pc.timer != nil && !pc.timer.Stop() {
		select {
		case <-pc.timer.C:
		default:
		}
	}
}

// lateDrops counts replies that arrived for tags nobody was waiting on
// anymore (the caller timed out and unregistered); the reply's pooled
// buffers are released, not leaked.
var lateDrops atomic.Int64

// NewConn wraps nc. The caller retains responsibility for closing via
// Close exactly once.
func NewConn(nc net.Conn) *Conn { return &Conn{nc: nc} }

// Dial connects to addr over TCP with a bounded connect time. The paper
// implemented connect timeouts with a forked watchdog and later setitimer;
// Go's dialer deadline provides the same semantics portably.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialOn(TCP, addr, timeout)
}

// DialOn connects to addr over an explicit transport.
func DialOn(tr Transport, addr string, timeout time.Duration) (*Conn, error) {
	nc, err := tr.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Close closes the underlying connection. Safe to call more than once.
func (c *Conn) Close() error {
	var err error
	c.oneShot.Do(func() { err = c.nc.Close() })
	return err
}

// RemoteAddr reports the remote endpoint.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// NextTag returns a fresh correlation tag, unique within this Conn.
func (c *Conn) NextTag() uint64 { return c.tagSeq.Add(1) }

// Broken reports the terminal error that killed this Conn's demux loop,
// or nil while the connection is usable. Clients use it to discard a
// cached connection before issuing async calls on it.
func (c *Conn) Broken() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

// Send writes p with a write deadline of timeout (0 means no deadline).
func (c *Conn) Send(p *Packet, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer c.nc.SetWriteDeadline(time.Time{})
	}
	return WritePacket(c.nc, p)
}

// Recv reads the next packet with a read deadline of timeout (0 means
// block indefinitely). This is the portable receive-with-timeout the paper
// built from select(); a deadline expiry surfaces as a net timeout error.
func (c *Conn) Recv(timeout time.Duration) (*Packet, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer c.nc.SetReadDeadline(time.Time{})
	}
	return ReadPacket(c.nc)
}

// window returns the in-flight admission channel, creating it on first
// use with the Conn's configured bound.
func (c *Conn) window() chan struct{} {
	c.pmu.Lock()
	if c.winCh == nil {
		n := c.Window
		if n <= 0 {
			n = DefaultWindow
		}
		c.winCh = make(chan struct{}, n)
	}
	ch := c.winCh
	c.pmu.Unlock()
	return ch
}

// acquireWindow claims an in-flight slot, waiting up to timeout when the
// window is full (0 blocks indefinitely).
func (c *Conn) acquireWindow(timeout time.Duration) error {
	ch := c.window()
	select {
	case ch <- struct{}{}:
		pipelineInflight.Add(1)
		return nil
	default:
	}
	if timeout <= 0 {
		ch <- struct{}{}
		pipelineInflight.Add(1)
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case ch <- struct{}{}:
		pipelineInflight.Add(1)
		return nil
	case <-t.C:
		return &TimeoutError{Op: "window", Addr: c.RemoteAddr()}
	}
}

// releaseWindowLocked frees an in-flight slot. It is called exactly once
// per registered call, always by whoever removes the call's entry from
// the pending map. The receive never blocks: one slot was claimed per
// entry.
func (c *Conn) releaseWindowLocked() {
	<-c.winCh
	pipelineInflight.Add(-1)
}

// register claims a window slot and a fresh tag, inserts pc into the
// pending map, and starts the demux loop on first use.
func (c *Conn) register(pc *pendingCall, timeout time.Duration) (uint64, error) {
	if err := c.acquireWindow(timeout); err != nil {
		return 0, err
	}
	c.pmu.Lock()
	if c.broken != nil {
		err := c.broken
		c.releaseWindowLocked()
		c.pmu.Unlock()
		return 0, err
	}
	tag := c.NextTag()
	if c.pending == nil {
		c.pending = make(map[uint64]*pendingCall)
	}
	c.pending[tag] = pc
	if !c.demuxOn {
		c.demuxOn = true
		go c.demuxLoop()
	}
	c.pmu.Unlock()
	return tag, nil
}

// Call performs one request/response exchange: it sends req with a fresh
// tag and waits up to timeout for the packet bearing that tag. Replies are
// demultiplexed by tag, so any number of goroutines may Call concurrently
// on the same Conn without consuming each other's responses — calls
// pipeline on the stream, bounded by Window; responses to calls that
// already timed out are discarded (and their pooled buffers released). A
// MsgError response is converted to a *RemoteError; a failure before the
// request hit the wire (the request cannot have been processed remotely)
// is wrapped in a *SendError so callers can retransmit safely.
//
// Call does NOT release req — ownership of pooled requests sits with
// Client.Call, whose retry ladder may retransmit the same packet.
func (c *Conn) Call(req *Packet, timeout time.Duration) (*Packet, error) {
	pc := getSyncCall()
	tag, err := c.register(pc, timeout)
	if err != nil {
		putSyncCall(pc)
		return nil, &SendError{Err: err}
	}
	req.Tag = tag
	if err := c.Send(req, timeout); err != nil {
		c.unregister(tag)
		c.drainSync(pc)
		putSyncCall(pc)
		return nil, &SendError{Err: err}
	}
	pc.armTimer(timeout)
	select {
	case resp := <-pc.ch:
		pc.disarmTimer()
		putSyncCall(pc)
		if resp == nil {
			c.pmu.Lock()
			err := c.broken
			c.pmu.Unlock()
			return nil, err
		}
		if resp.Type == MsgError {
			err := DecodeError(resp)
			resp.Release()
			return nil, err
		}
		return resp, nil
	case <-pc.timer.C:
		c.unregister(tag)
		// The reply may have been delivered between the timer firing and
		// the unregister taking the lock; drop it so the pooled channel
		// is clean for reuse and the payload buffer goes back.
		c.drainSync(pc)
		putSyncCall(pc)
		return nil, &TimeoutError{Op: "call", Addr: c.RemoteAddr()}
	}
}

// unregister abandons the pending call for tag. If the call is still
// registered its window slot is freed; a late reply bearing the tag is
// then dropped (and released) by the demultiplexer.
func (c *Conn) unregister(tag uint64) {
	c.pmu.Lock()
	if _, ok := c.pending[tag]; ok {
		delete(c.pending, tag)
		c.releaseWindowLocked()
	}
	c.pmu.Unlock()
}

// drainSync disposes of a reply that raced into an abandoned sync call's
// channel, releasing its pooled payload.
func (c *Conn) drainSync(pc *pendingCall) {
	select {
	case p := <-pc.ch:
		if p != nil {
			lateDrops.Add(1)
			p.Release()
		}
	default:
	}
}

// demuxLoop owns all reads on the connection once the first Call starts
// it: every inbound packet is routed, under the pending-map lock, to the
// caller waiting on its tag. Replies to abandoned calls are dropped and
// their pooled buffers released. A read error is terminal: every pending
// and future Call on this Conn fails with it, and the owning Client
// redials.
func (c *Conn) demuxLoop() {
	for {
		p, err := c.Recv(0)
		if err != nil {
			c.pmu.Lock()
			c.broken = fmt.Errorf("wire: connection to %s broken: %w", c.RemoteAddr(), err)
			for tag, pc := range c.pending {
				delete(c.pending, tag)
				c.releaseWindowLocked()
				if pc.async != nil {
					pc.stopAsyncTimer()
					pc.async.complete(nil, c.broken)
				} else {
					pc.ch <- nil
				}
			}
			c.pmu.Unlock()
			return
		}
		// A pre-tracing peer echoes the request tag verbatim, including the
		// trace-context tag bit; mask it so correlation sees the raw tag.
		tag := p.Tag &^ traceTagBit
		c.pmu.Lock()
		pc, ok := c.pending[tag]
		if ok {
			delete(c.pending, tag)
			c.releaseWindowLocked()
			if pc.async != nil {
				pc.stopAsyncTimer()
				if p.Type == MsgError {
					err := DecodeError(p)
					p.Release()
					pc.async.complete(nil, err)
				} else {
					pc.async.complete(p, nil)
				}
			} else {
				// Capacity-1 channel, sole send for this tag: the send
				// cannot block, so delivering under pmu is safe and makes
				// delivery atomic with the map removal — no window where a
				// timed-out caller's pooled channel could be reused while a
				// reply is still in flight toward it.
				pc.ch <- p
			}
		}
		c.pmu.Unlock()
		if !ok {
			lateDrops.Add(1)
			p.Release()
		}
	}
}

// PendingCall is one in-flight asynchronous call issued with CallAsync
// or Client.Go. When the call completes — reply, error, or timeout —
// Resp/Err are filled and the call is delivered on Done. Resp, when
// non-nil, is pooled: the receiver releases it after decoding.
type PendingCall struct {
	// Resp is the reply packet (nil on error).
	Resp *Packet
	// Err is the terminal error (nil on success). A *RemoteError is a
	// definitive remote answer; *SendError means the request never hit
	// the wire.
	Err error
	// Done receives the call itself exactly once, on completion.
	Done chan *PendingCall
}

// complete finishes the call exactly once: the sole caller is whoever
// removed the call's entry from the pending map (or the issuer before
// the call was ever published), so completions cannot race. The Done
// channel has capacity 1, so the send never blocks.
func (ac *PendingCall) complete(resp *Packet, err error) {
	ac.Resp, ac.Err = resp, err
	ac.Done <- ac
}

// Wait blocks until the call completes and returns its result. The
// caller owns the returned packet and releases it after decoding.
func (ac *PendingCall) Wait() (*Packet, error) {
	<-ac.Done
	return ac.Resp, ac.Err
}

// failedCall returns an already-completed PendingCall carrying err.
func failedCall(err error) *PendingCall {
	ac := &PendingCall{Done: make(chan *PendingCall, 1)}
	ac.complete(nil, err)
	return ac
}

// CallAsync issues a pipelined request/response exchange without waiting
// for the reply: it claims a window slot (waiting up to timeout when the
// pipeline is full), sends req, and returns a PendingCall completed by
// the demux loop when the correlated reply arrives, by the timeout, or
// by connection failure. Any mix of CallAsync and Call shares one Conn.
//
// CallAsync takes ownership of req: the packet is released as soon as
// its bytes are written (there is no retransmission on the async path —
// quorum and fan-out layers own their own redundancy).
func (c *Conn) CallAsync(req *Packet, timeout time.Duration) *PendingCall {
	ac := &PendingCall{Done: make(chan *PendingCall, 1)}
	pc := &pendingCall{async: ac}
	tag, err := c.register(pc, timeout)
	if err != nil {
		req.Release()
		ac.complete(nil, &SendError{Err: err})
		return ac
	}
	req.Tag = tag
	sendErr := c.Send(req, timeout)
	req.Release()
	if sendErr != nil {
		c.failPending(tag, &SendError{Err: sendErr})
		return ac
	}
	if timeout > 0 {
		// The timeout timer lives on the map entry and is armed and
		// stopped only under pmu: the reply may already be racing back
		// through the demux, which reads the entry the instant it holds
		// the lock.
		c.pmu.Lock()
		if c.pending[tag] == pc {
			pc.timer = time.AfterFunc(timeout, func() {
				c.failPending(tag, &TimeoutError{Op: "call", Addr: c.RemoteAddr()})
			})
		}
		c.pmu.Unlock()
	}
	return ac
}

// failPending completes the async call registered under tag with err, if
// it is still pending. Completion strictly follows map removal, so a
// call completes exactly once even when the timeout, a send failure, and
// the demux race.
func (c *Conn) failPending(tag uint64, err error) {
	c.pmu.Lock()
	pc, ok := c.pending[tag]
	if ok {
		delete(c.pending, tag)
		c.releaseWindowLocked()
		if pc.async != nil {
			pc.stopAsyncTimer()
		}
	}
	c.pmu.Unlock()
	if ok && pc.async != nil {
		pc.async.complete(nil, err)
	}
}

// TimeoutError reports a lingua franca operation that exceeded its
// dynamically or statically configured time-out interval.
type TimeoutError struct {
	Op   string
	Addr string
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("wire: %s to %s timed out", e.Op, e.Addr)
}

// Timeout marks the error as a timeout for net.Error-style checks.
func (e *TimeoutError) Timeout() bool { return true }

// IsTimeout reports whether err represents an I/O timeout, from either the
// packet layer or the underlying net stack.
func IsTimeout(err error) bool {
	type timeouter interface{ Timeout() bool }
	for err != nil {
		if t, ok := err.(timeouter); ok {
			return t.Timeout()
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
