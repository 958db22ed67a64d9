package clique

import (
	"fmt"
	"sync"
	"time"

	"everyware/internal/wire"
)

// MsgClique is the lingua franca message type carrying clique protocol
// messages between daemons.
const MsgClique wire.MsgType = 10

// The clique protocol is built to absorb duplicate and lost tokens
// (sequence numbers discard stale deliveries), so its messages are safe to
// retransmit when a connection dies mid-call.
func init() {
	wire.Define(MsgClique, "clique.token", true)
}

// encodeStrings appends a length-prefixed string list.
func encodeStrings(e *wire.Encoder, ss []string) {
	e.PutUint32(uint32(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

func decodeStrings(d *wire.Decoder) ([]string, error) {
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := d.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func encodeView(e *wire.Encoder, v View) {
	e.PutUint64(v.Seq)
	e.PutString(v.Leader)
	encodeStrings(e, v.Members)
}

func decodeView(d *wire.Decoder) (View, error) {
	var v View
	var err error
	if v.Seq, err = d.Uint64(); err != nil {
		return v, err
	}
	if v.Leader, err = d.String(); err != nil {
		return v, err
	}
	v.Members, err = decodeStrings(d)
	return v, err
}

// EncodeWire implements wire.Message, so a protocol message encodes in
// place into a pooled request buffer. Trace rides the wire layer's
// envelope, never the payload.
func (m *Message) EncodeWire(e *wire.Encoder) {
	e.PutUint8(uint8(m.Kind))
	e.PutString(m.From)
	encodeView(e, m.View)
	if m.Token != nil {
		e.PutBool(true)
		e.PutString(m.Token.Origin)
		e.PutUint64(m.Token.Seq)
		encodeStrings(e, m.Token.Members)
		encodeStrings(e, m.Token.Visited)
		encodeStrings(e, m.Token.Failed)
	} else {
		e.PutBool(false)
	}
}

// EncodeMessage serializes a clique Message into lingua franca payload
// bytes.
func EncodeMessage(m *Message) []byte {
	var e wire.Encoder
	m.EncodeWire(&e)
	return e.Bytes()
}

// DecodeMessage parses payload bytes produced by EncodeMessage.
func DecodeMessage(payload []byte) (*Message, error) {
	d := wire.NewDecoder(payload)
	var m Message
	k, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	m.Kind = Kind(k)
	if m.From, err = d.String(); err != nil {
		return nil, err
	}
	if m.View, err = decodeView(d); err != nil {
		return nil, err
	}
	hasToken, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if hasToken {
		t := &Token{}
		if t.Origin, err = d.String(); err != nil {
			return nil, err
		}
		if t.Seq, err = d.Uint64(); err != nil {
			return nil, err
		}
		if t.Members, err = decodeStrings(d); err != nil {
			return nil, err
		}
		if t.Visited, err = decodeStrings(d); err != nil {
			return nil, err
		}
		if t.Failed, err = decodeStrings(d); err != nil {
			return nil, err
		}
		m.Token = t
	}
	return &m, nil
}

// SendFilter intercepts an Endpoint's outbound messages. The filter may
// deliver by invoking send (any number of times — zero models a drop,
// two a duplicate) or fail the send by returning an error without
// calling it. The fault-injection harness and protocol tests use this to
// impose partitions and message-level chaos on any transport, including
// in-memory ones where there is no byte stream to perturb.
type SendFilter func(to string, msg *Message, send func() error) error

// Endpoint carries the clique protocol over the lingua franca. It
// attaches to an existing wire.Server (so a Gossip daemon serves clique
// traffic on its ordinary service port) and sends via a shared
// wire.Client — the substrate is whatever wire.Transport both ride,
// TCP or in-memory alike.
type Endpoint struct {
	self    string
	client  *wire.Client
	timeout time.Duration

	hmu     sync.RWMutex
	handler func(*Message)
	filter  SendFilter

	inbox     chan *Message
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewEndpoint registers clique handling on srv and returns an endpoint
// whose ID is selfAddr (the server's public address). sendTimeout bounds
// each Send; unreachable peers surface as ErrUnreachable.
//
// Inbound messages are acknowledged immediately and processed from a
// bounded queue on a dedicated goroutine. Clique handlers send downstream
// (token relays, merge nudges); if the ack waited for the handler, every
// token hop would hold its sender's RPC open for the whole downstream
// cascade, and under load the clique serializes into lockstep chains that
// stall far longer than the token timeout. When the queue overflows, the
// message is dropped — the protocol is built to absorb lost messages.
func NewEndpoint(srv *wire.Server, selfAddr string, client *wire.Client, sendTimeout time.Duration) *Endpoint {
	t := &Endpoint{
		self:    selfAddr,
		client:  client,
		timeout: sendTimeout,
		inbox:   make(chan *Message, 256),
		done:    make(chan struct{}),
	}
	srv.Register(MsgClique, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		m, err := DecodeMessage(req.Payload)
		if err != nil {
			return nil, fmt.Errorf("clique: decode: %w", err)
		}
		// Carry the inbound trace context (extracted by the wire server)
		// so the handler's own downstream sends continue the same trace.
		m.Trace = req.Trace
		select {
		case t.inbox <- m:
		default: // backlogged: shed load, the protocol recovers
		}
		return wire.Reply(MsgClique, nil), nil // bare ack
	}))
	t.wg.Add(1)
	go t.deliver()
	return t
}

// deliver drains the inbox into the installed handler.
func (t *Endpoint) deliver() {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case m := <-t.inbox:
			t.hmu.RLock()
			h := t.handler
			t.hmu.RUnlock()
			if h != nil {
				h(m)
			}
		}
	}
}

// Self returns the endpoint's advertised address.
func (t *Endpoint) Self() string { return t.self }

// Send delivers msg to the peer daemon at `to`, returning ErrUnreachable on
// connect failure or ack timeout. An installed SendFilter sees the message
// first.
func (t *Endpoint) Send(to string, msg *Message) error {
	t.hmu.RLock()
	filter := t.filter
	t.hmu.RUnlock()
	send := func() error {
		if err := t.client.CallMsgTraced(to, MsgClique, msg.Trace, msg, nil, t.timeout); err != nil {
			return fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
		}
		return nil
	}
	if filter != nil {
		return filter(to, msg, send)
	}
	return send()
}

// SetHandler installs the receive callback.
func (t *Endpoint) SetHandler(h func(*Message)) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.handler = h
}

// SetSendFilter installs (or clears, with nil) the outbound intercept.
func (t *Endpoint) SetSendFilter(f SendFilter) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.filter = f
}

// Close stops the delivery goroutine. The owning daemon closes the
// server and client.
func (t *Endpoint) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	t.wg.Wait()
	return nil
}
