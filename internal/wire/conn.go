package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWindow is the per-Conn bound on pipelined in-flight calls. The
// window is admission control, not concurrency: calls beyond it wait (up
// to their timeout) for a slot instead of stacking unbounded state on
// one connection.
const DefaultWindow = 64

// Conn wraps a stream connection with packet semantics and the
// timeout-bounded request/response exchange the lingua franca requires.
// Writes are serialized by a mutex.
//
// Concurrent calls on one Conn are multiplexed by correlation tag: the
// first call starts a demultiplexer goroutine that owns all reads and
// routes each reply to the waiting caller. Calls pipeline — Call and Go
// share one mechanism and one connection, bounded by DefaultWindow.
type Conn struct {
	nc      net.Conn
	wmu     sync.Mutex
	tagSeq  atomic.Uint64
	oneShot sync.Once

	pmu     sync.Mutex
	pending map[uint64]*PendingCall
	winCh   chan struct{}
	demuxOn bool
	broken  error // terminal read error; all further calls fail fast
}

// PendingCall is one in-flight call issued with Conn.Go or Client.Go.
// Wait collects its result exactly once; the call is pooled and must not
// be touched after Wait returns.
//
// ch has capacity 1 and receives the reply (nil when the connection
// broke); the demux sends on it under the pending-map lock, atomically
// with removing the call's entry. timer is the call's reusable deadline,
// owned by whoever issued and waits on the call.
type PendingCall struct {
	ch    chan *Packet
	timer *time.Timer
	armed bool
	c     *Conn
	tag   uint64
	err   error // set when the request was never sent
}

// callPool pools PendingCall structs so the per-call channel and
// deadline timer are reused instead of allocated.
var callPool sync.Pool

func getCall() *PendingCall {
	poolGets.Add(1)
	if pc, ok := callPool.Get().(*PendingCall); ok {
		return pc
	}
	poolMisses.Add(1)
	return &PendingCall{ch: make(chan *Packet, 1)}
}

// putCall requires pc.ch drained and pc.timer stopped and drained.
func putCall(pc *PendingCall) {
	pc.c, pc.err = nil, nil
	poolPuts.Add(1)
	callPool.Put(pc)
}

// armTimer starts (or re-arms) the call's reusable deadline timer. A
// timeout <= 0 means no deadline.
func (pc *PendingCall) armTimer(d time.Duration) {
	if d <= 0 {
		return
	}
	pc.armed = true
	if pc.timer == nil {
		pc.timer = time.NewTimer(d)
		return
	}
	pc.timer.Reset(d)
}

// disarmTimer stops the timer and drains a tick that already fired, so
// the timer is safe to Reset on the next call.
func (pc *PendingCall) disarmTimer() {
	if pc.armed && !pc.timer.Stop() {
		select {
		case <-pc.timer.C:
		default:
		}
	}
	pc.armed = false
}

// lateDrops counts replies that arrived for tags nobody was waiting on
// anymore (the caller timed out and unregistered); the reply's pooled
// buffers are released, not leaked.
var lateDrops atomic.Int64

// DialOn connects to addr over tr with a bounded connect time. The paper
// implemented connect timeouts with a forked watchdog and later
// setitimer; a transport's dial deadline provides the same semantics
// portably.
func DialOn(tr Transport, addr string, timeout time.Duration) (*Conn, error) {
	nc, err := tr.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Conn{nc: nc, winCh: make(chan struct{}, DefaultWindow)}, nil
}

// Close closes the underlying connection. Safe to call more than once.
func (c *Conn) Close() error {
	var err error
	c.oneShot.Do(func() { err = c.nc.Close() })
	return err
}

// RemoteAddr reports the remote endpoint.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// Broken reports the terminal error that killed this Conn's demux loop,
// or nil while the connection is usable. Clients use it to discard a
// cached connection before issuing async calls on it.
func (c *Conn) Broken() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

// send writes p with a write deadline of timeout (<= 0 means no
// deadline).
func (c *Conn) send(p *Packet, timeout time.Duration) error {
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

// acquireWindow claims an in-flight slot, waiting up to timeout when the
// window is full (<= 0 blocks indefinitely).
func (c *Conn) acquireWindow(timeout time.Duration) error {
	select {
	case c.winCh <- struct{}{}:
		pipelineInflight.Add(1)
		return nil
	default:
	}
	if timeout <= 0 {
		c.winCh <- struct{}{}
		pipelineInflight.Add(1)
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c.winCh <- struct{}{}:
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
func (c *Conn) register(pc *PendingCall, timeout time.Duration) error {
	if err := c.acquireWindow(timeout); err != nil {
		return err
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.broken != nil {
		c.releaseWindowLocked()
		return c.broken
	}
	pc.tag = c.tagSeq.Add(1)
	if c.pending == nil {
		c.pending = make(map[uint64]*PendingCall)
	}
	c.pending[pc.tag] = pc
	if !c.demuxOn {
		c.demuxOn = true
		go c.demuxLoop()
	}
	return nil
}

// Go issues a pipelined request/response exchange without waiting for
// the reply: it claims a window slot (waiting up to timeout when the
// pipeline is full), sends req with a fresh tag and arms the call's
// deadline. Wait collects the reply. Responses to calls that already
// timed out are discarded (and their pooled buffers released). A failure
// before the request hit the wire (the request cannot have been
// processed remotely) is reported by Wait as a *SendError so callers can
// retransmit safely. A timeout <= 0 means no deadline.
//
// Go does NOT release req — ownership of pooled requests sits with
// Client.Call and Client.Go; the retry ladder may retransmit the same
// packet.
func (c *Conn) Go(req *Packet, timeout time.Duration) *PendingCall {
	pc := getCall()
	if err := c.register(pc, timeout); err != nil {
		pc.err = &SendError{Err: err}
		return pc
	}
	pc.c = c
	req.Tag = pc.tag
	if err := c.send(req, timeout); err != nil {
		c.unregister(pc)
		pc.err = &SendError{Err: err}
		return pc
	}
	pc.armTimer(timeout)
	return pc
}

// Call performs one request/response exchange: Go followed by Wait. Any
// number of goroutines may Call concurrently on the same Conn without
// consuming each other's responses.
func (c *Conn) Call(req *Packet, timeout time.Duration) (*Packet, error) {
	return c.Go(req, timeout).Wait()
}

// Wait blocks until the call's reply arrives, its deadline passes, or
// the connection fails, and returns the call to the pool. A MsgError
// reply is converted to a *RemoteError; *SendError means the request
// never hit the wire. The caller owns the returned packet and releases
// it after decoding.
func (pc *PendingCall) Wait() (*Packet, error) {
	c, err := pc.c, pc.err
	if err != nil {
		putCall(pc)
		return nil, err
	}
	var expired <-chan time.Time
	if pc.armed {
		expired = pc.timer.C
	}
	select {
	case resp := <-pc.ch:
		pc.disarmTimer()
		putCall(pc)
		if resp == nil {
			return nil, c.Broken()
		}
		if resp.Type == MsgError {
			err := DecodeError(resp)
			resp.Release()
			return nil, err
		}
		return resp, nil
	case <-expired:
		pc.armed = false
		c.unregister(pc)
		putCall(pc)
		return nil, &TimeoutError{Op: "call", Addr: c.RemoteAddr()}
	}
}

// unregister abandons pc. If the call is still registered its window
// slot is freed; a late reply bearing its tag is then dropped (and
// released) by the demultiplexer. A reply that raced into pc.ch before
// the unregister took the lock is dropped here, so the pooled channel is
// clean for reuse and the payload buffer goes back.
func (c *Conn) unregister(pc *PendingCall) {
	c.pmu.Lock()
	if _, ok := c.pending[pc.tag]; ok {
		delete(c.pending, pc.tag)
		c.releaseWindowLocked()
	}
	c.pmu.Unlock()
	select {
	case p := <-pc.ch:
		if p != nil {
			lateDrops.Add(1)
			p.Release()
		}
	default:
	}
}

// demuxLoop owns all reads on the connection once the first call starts
// it: every inbound packet is routed, under the pending-map lock, to the
// caller waiting on its tag. Replies to abandoned calls are dropped and
// their pooled buffers released. A read error is terminal: every pending
// and future call on this Conn fails with it, and the owning Client
// redials.
func (c *Conn) demuxLoop() {
	for {
		p, err := ReadPacket(c.nc)
		if err != nil {
			c.pmu.Lock()
			c.broken = fmt.Errorf("wire: connection to %s broken: %w", c.RemoteAddr(), err)
			for tag, pc := range c.pending {
				delete(c.pending, tag)
				c.releaseWindowLocked()
				pc.ch <- nil
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
			// Capacity-1 channel, sole send for this tag: the send cannot
			// block, so delivering under pmu is safe and makes delivery
			// atomic with the map removal — no window where a timed-out
			// caller's pooled channel could be reused while a reply is
			// still in flight toward it.
			pc.ch <- p
		}
		c.pmu.Unlock()
		if !ok {
			lateDrops.Add(1)
			p.Release()
		}
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
