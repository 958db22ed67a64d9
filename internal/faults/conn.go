package faults

import (
	"fmt"
	"net"
	"time"
)

// wrap decorates nc with the injector's fault schedule for the
// from->to stream. Faults are injected at write granularity: the lingua
// franca writes one frame per Write call, so a verdict perturbs exactly
// one protocol message.
func (in *Injector) wrap(nc net.Conn, from, to string) net.Conn {
	return &faultConn{Conn: nc, in: in, from: from, to: to, stream: from + "->" + to}
}

type faultConn struct {
	net.Conn
	in     *Injector
	from   string
	to     string
	stream string
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.in.Partitioned(c.from, c.to) {
		c.Conn.Close()
		return 0, fmt.Errorf("faults: %s partitioned", c.stream)
	}
	c.in.messages.Add(1)
	act, delay := c.in.verdict(c.stream)
	switch act {
	case ActDrop:
		c.in.dropped.Add(1)
		// Swallow the frame: the sender sees success, the receiver sees
		// silence — the shape of a message lost in the network.
		return len(b), nil
	case ActDelay:
		c.in.delayed.Add(1)
		time.Sleep(delay)
	case ActDup:
		c.in.duplicated.Add(1)
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
	case ActReset:
		c.in.resets.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("faults: %s reset", c.stream)
	case ActTorn:
		c.in.torn.Add(1)
		cut := len(b) / 2
		if cut < 1 {
			cut = 1
		}
		n, _ := c.Conn.Write(b[:cut])
		c.Conn.Close()
		return n, fmt.Errorf("faults: %s torn after %d/%d bytes", c.stream, n, len(b))
	}
	c.in.delivered.Add(1)
	return c.Conn.Write(b)
}
