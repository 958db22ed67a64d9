package wire

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Transport is the substrate the lingua franca rides on. The paper's
// messaging layer exists precisely so EveryWare programs run unchanged
// across Globus, Legion, Condor, NetSolve, Java, NT, and Unix — the
// substrate is swappable, the program logic is not. A Transport supplies
// the two substrate operations the packet layer needs: opening a stream
// to a peer and binding a listener. Everything above (packets, tagging,
// retry, telemetry, daemons) is transport-agnostic.
//
// Two implementations ship with the toolkit: TCP (the default, real
// sockets) and MemTransport (in-process buffered pipes with an address
// registry — whole fleets in one process, no ports). The faults package
// wraps conns and listeners from either one identically.
type Transport interface {
	// Dial opens a stream to addr, bounded by timeout (0 = no bound).
	Dial(addr string, timeout time.Duration) (net.Conn, error)
	// Listen binds a listener at addr (":0" requests an ephemeral
	// address).
	Listen(addr string) (net.Listener, error)
}

// TCP is the default transport: real sockets via the net package.
var TCP Transport = tcpTransport{}

type tcpTransport struct{}

func (tcpTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func (tcpTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// MemTransport is an in-process transport: listeners register in a
// shared address table and dials connect buffered duplex pipes. One
// MemTransport is one network — fleets sharing it can reach each other,
// nothing else. Addresses are plain strings: a daemon may bind a
// meaningful name ("g1") or ask for an ephemeral one (any address
// ending in ":0", or ""), which allocates "mem:N".
//
// Semantics match TCP where the stack depends on it: dialing an unbound
// or closed address is refused immediately, closing a listener wakes
// blocked Accepts with net.ErrClosed, double-close errors, and conns
// honor deadlines. Writes land in a bounded in-memory buffer (like the
// kernel socket buffer) and block only when it is full; a closed peer
// drains buffered data and then reads EOF. The conns allocate nothing
// per operation in steady state — buffers and deadline timers are
// per-connection and reused — which is what lets the mem round trip hit
// the ≤2 allocs/op wire budget.
type MemTransport struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	seq       int
}

// NewMemTransport returns an empty in-process network.
func NewMemTransport() *MemTransport {
	return &MemTransport{listeners: make(map[string]*memListener)}
}

// Listen binds addr. An empty addr or one ending in ":0" allocates a
// fresh synthetic address; any other string is bound verbatim (so a
// restarted daemon can reclaim its old address) and errors if taken.
func (m *MemTransport) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		m.seq++
		addr = "mem:" + strconv.Itoa(m.seq)
	} else if _, taken := m.listeners[addr]; taken {
		return nil, fmt.Errorf("mem: listen %s: address already in use", addr)
	}
	l := &memListener{
		m:     m,
		addr:  memAddr(addr),
		queue: make(chan net.Conn, 64),
		done:  make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener bound at addr. Unbound addresses are
// refused immediately, like a TCP connect to a closed port.
func (m *MemTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	l := m.listeners[addr]
	m.seq++
	peer := memAddr("mem:dial-" + strconv.Itoa(m.seq))
	m.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: errRefused}
	}
	local, remote := newMemPair(peer, l.addr)
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case l.queue <- remote:
		return local, nil
	case <-l.done:
		local.Close()
		remote.Close()
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: errRefused}
	case <-timer:
		local.Close()
		remote.Close()
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: &TimeoutError{Op: "dial", Addr: addr}}
	}
}

var errRefused = fmt.Errorf("connection refused")

// memAddr is a net.Addr over a plain string.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memBufMax bounds one direction's in-flight bytes, playing the role of
// the kernel socket buffer: a writer ahead of its reader by more than
// this blocks until the reader drains.
const memBufMax = 256 << 10

// memBuf is one direction of a mem connection: a mutex-guarded byte
// queue with a condition variable for blocking reads/writes and reusable
// deadline timers, so the steady-state data path allocates nothing.
type memBuf struct {
	mu     sync.Mutex
	cond   sync.Cond
	data   []byte
	off    int
	closed bool
	rdl    memDeadline
	wdl    memDeadline
}

func newMemBuf() *memBuf {
	b := &memBuf{}
	b.cond.L = &b.mu
	return b
}

// memDeadline is a reusable deadline: when is the armed instant (zero =
// no deadline); the AfterFunc timer only broadcasts the buffer's cond so
// blocked readers/writers re-check. Stale wakeups are harmless — expiry
// is judged against when, not against timer state.
type memDeadline struct {
	when     time.Time
	armedFor time.Time
	timer    *time.Timer
}

func (d *memDeadline) reached() bool {
	return !d.when.IsZero() && !time.Now().Before(d.when)
}

// set records (or clears, for a zero t) the deadline and wakes any
// blocked waiter to re-check against it. The wake-up timer is armed
// lazily by the waiter itself, just before it blocks — the wire hot path
// sets and clears a deadline around every packet write, and paying a
// runtime timer Reset/Stop pair per packet for a timer that never fires
// dominated the mem round trip. Caller holds b.mu.
func (b *memBuf) set(d *memDeadline, t time.Time) {
	d.when = t
	b.cond.Broadcast()
}

// arm schedules the deadline wake-up before a waiter blocks. Spurious or
// stale fires (a cleared or re-set deadline) just broadcast and are
// re-checked against when. Caller holds b.mu.
func (b *memBuf) arm(d *memDeadline) {
	if d.when.IsZero() || d.when.Equal(d.armedFor) {
		return
	}
	dur := time.Until(d.when)
	if dur <= 0 {
		return // reached() reports expiry on the next loop pass
	}
	if d.timer == nil {
		d.timer = time.AfterFunc(dur, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
	} else {
		d.timer.Reset(dur)
	}
	d.armedFor = d.when
}

func (b *memBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// read copies buffered bytes out, blocking until data, EOF, or deadline.
func (b *memBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.data) > b.off {
			n := copy(p, b.data[b.off:])
			b.off += n
			if b.off == len(b.data) {
				b.data = b.data[:0]
				b.off = 0
			}
			b.cond.Broadcast()
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if b.rdl.reached() {
			return 0, &net.OpError{Op: "read", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		b.arm(&b.rdl)
		b.cond.Wait()
	}
}

// write appends to the buffer, blocking while it is full.
func (b *memBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for len(p) > 0 {
		if b.closed {
			return n, io.ErrClosedPipe
		}
		if b.wdl.reached() {
			return n, &net.OpError{Op: "write", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		if avail := memBufMax - (len(b.data) - b.off); avail > 0 {
			k := len(p)
			if k > avail {
				k = avail
			}
			// Compact consumed front space before the append would grow
			// the buffer, so steady-state traffic reuses one allocation.
			if b.off > 0 && len(b.data)+k > cap(b.data) {
				b.data = b.data[:copy(b.data, b.data[b.off:])]
				b.off = 0
			}
			b.data = append(b.data, p[:k]...)
			p = p[k:]
			n += k
			b.cond.Broadcast()
			continue
		}
		b.arm(&b.wdl)
		b.cond.Wait()
	}
	return n, nil
}

// memConn is one end of a buffered in-process duplex stream.
type memConn struct {
	local, remote net.Addr
	rb, wb        *memBuf // read from rb, write into wb
	closeOnce     sync.Once
}

// newMemPair builds both ends of a mem connection.
func newMemPair(dialer, listener net.Addr) (*memConn, *memConn) {
	d2l, l2d := newMemBuf(), newMemBuf()
	local := &memConn{local: dialer, remote: listener, rb: l2d, wb: d2l}
	remote := &memConn{local: listener, remote: dialer, rb: d2l, wb: l2d}
	return local, remote
}

func (c *memConn) Read(p []byte) (int, error)  { return c.rb.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.wb.write(p) }

// Close closes both directions: the peer's pending writes fail, its
// reads drain buffered data and then see EOF — like a TCP close.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() {
		c.wb.close()
		c.rb.close()
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rb.mu.Lock()
	c.rb.set(&c.rb.rdl, t)
	c.rb.mu.Unlock()
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.wb.mu.Lock()
	c.wb.set(&c.wb.wdl, t)
	c.wb.mu.Unlock()
	return nil
}

// memListener is one bound address on a MemTransport.
type memListener struct {
	m     *MemTransport
	addr  memAddr
	queue chan net.Conn
	done  chan struct{}

	mu     sync.Mutex
	closed bool
}

// Accept waits for the next inbound pipe.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.queue:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Close unbinds the address and wakes blocked Accepts and Dials. A
// second Close errors, matching net.Listener.
func (l *memListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return &net.OpError{Op: "close", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
	l.closed = true
	l.mu.Unlock()

	l.m.mu.Lock()
	if l.m.listeners[string(l.addr)] == l {
		delete(l.m.listeners, string(l.addr))
	}
	l.m.mu.Unlock()
	close(l.done)
	// Connections dialed but never accepted would otherwise hang their
	// dialer's first read forever.
	for {
		select {
		case c := <-l.queue:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *memListener) Addr() net.Addr { return l.addr }
