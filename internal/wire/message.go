package wire

import (
	"sync"
	"sync/atomic"
)

// The pooled message contract.
//
// Historically every subsystem built a throwaway []byte payload per
// request (`var e Encoder; e.Put...; &Packet{Payload: e.Bytes()}`) and
// the reply's payload was a fresh allocation per read. The hot path now
// runs on pooled buffers with explicit ownership instead:
//
//   - NewRequest(t, m) encodes m in place into a pooled Encoder and
//     wraps it in a pooled Packet. Reply is the same constructor under
//     the name handlers use.
//   - Client.Call / Client.Go take ownership of the request packet and
//     release it once its bytes are on the wire (and, for Client.Call,
//     once the retry ladder is done with it).
//   - Responses handed back by Call (and requests handed to server
//     handlers) carry pooled payload buffers; whoever finishes with the
//     packet calls Release exactly once. The Server releases requests
//     and responses itself after the reply is written; client callers
//     release the response after decoding.
//   - Release on a packet that holds no pooled resources is a no-op, so
//     legacy callers passing plain &Packet{} literals (and tests that
//     never release) remain correct — they just bypass the pools.
//
// Decoded values must not alias a released payload: Decoder.Bytes copies
// by default and Decoder.BytesView is the audited opt-out.

// Message is the encode half of the pooled codec contract: a request or
// response that serializes itself into a caller-supplied Encoder. An
// implementation that knows its encoded size should call e.Grow once up
// front.
type Message interface {
	EncodeWire(e *Encoder)
}

// Decodable is the decode half of the contract.
type Decodable interface {
	DecodeWire(d *Decoder) error
}

// MessageFunc adapts a closure to Message, for call sites whose payload
// is built inline rather than from a named struct.
type MessageFunc func(e *Encoder)

// EncodeWire calls f.
func (f MessageFunc) EncodeWire(e *Encoder) { f(e) }

// RawMessage is a Message over an already-encoded payload. The bytes are
// appended verbatim.
type RawMessage []byte

// EncodeWire appends the raw bytes.
func (m RawMessage) EncodeWire(e *Encoder) {
	e.Grow(len(m))
	e.Append(m)
}

// NewRequest builds a request packet of type t whose payload is m
// encoded into a pooled buffer. The packet struct itself is pooled; the
// call path that accepts it (Client.Call, Client.Go, or a Server
// writing it as a reply) owns it and returns it to the pools.
// A nil m produces an empty payload.
func NewRequest(t MsgType, m Message) *Packet {
	p := getPacket()
	p.Type = t
	if m != nil {
		e := getEncoder()
		m.EncodeWire(e)
		p.enc = e
		p.Payload = e.Bytes()
	}
	return p
}

// Reply builds a response packet on the pooled path; it is NewRequest
// under the name server handlers use. The Server releases the packet
// after writing it.
func Reply(t MsgType, m Message) *Packet { return NewRequest(t, m) }

// NewRawRequest builds a pooled packet whose payload is p copied into a
// pooled buffer: NewRequest(t, RawMessage(p)) without the per-call
// interface boxing. Echo paths and forwarders that already hold encoded
// bytes use it to stay allocation-free.
func NewRawRequest(t MsgType, payload []byte) *Packet {
	p := getPacket()
	p.Type = t
	e := getEncoder()
	e.Grow(len(payload))
	e.Append(payload)
	p.enc = e
	p.Payload = e.Bytes()
	return p
}

// Decode decodes p's payload into m using a pooled Decoder.
func (p *Packet) Decode(m Decodable) error {
	d := getDecoder()
	d.Reset(p.Payload)
	err := m.DecodeWire(d)
	putDecoder(d)
	return err
}

// Pool-level observability: process-wide counters across every wire
// buffer pool (write buffers, read payload buffers, encoders, packet
// structs). A miss is a Get that found the pool empty and allocated.
// Surfaced as wire.pool.get/put/miss gauges by the MsgTelemetry handler
// and as columns in ew top.
var (
	poolGets   atomic.Int64
	poolPuts   atomic.Int64
	poolMisses atomic.Int64
)

// PoolStats reports cumulative pooled-buffer gets, puts, and misses for
// this process's wire layer.
func PoolStats() (gets, puts, misses int64) {
	return poolGets.Load(), poolPuts.Load(), poolMisses.Load()
}

// pipelineInflight tracks calls currently holding a slot in some Conn's
// bounded in-flight window.
var pipelineInflight atomic.Int64

// PipelineInflight reports how many pipelined calls are in flight across
// every Conn in the process.
func PipelineInflight() int64 { return pipelineInflight.Load() }

// The pools. None has a New func: a nil Get is how misses are counted.

var (
	encoders sync.Pool // *Encoder
	decoders sync.Pool // *Decoder
	packets  sync.Pool // *Packet
	readBufs sync.Pool // *[]byte, payload buffers filled by ReadPacket
)

func getEncoder() *Encoder {
	poolGets.Add(1)
	if e, ok := encoders.Get().(*Encoder); ok {
		return e
	}
	poolMisses.Add(1)
	return NewEncoder(512)
}

func putEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledReadBuf {
		return // rare huge payload; let it go
	}
	poolPuts.Add(1)
	e.Reset()
	encoders.Put(e)
}

func getDecoder() *Decoder {
	if d, ok := decoders.Get().(*Decoder); ok {
		return d
	}
	return &Decoder{}
}

func putDecoder(d *Decoder) {
	d.Reset(nil)
	decoders.Put(d)
}

func getPacket() *Packet {
	poolGets.Add(1)
	if p, ok := packets.Get().(*Packet); ok {
		p.released = false
		return p
	}
	poolMisses.Add(1)
	return &Packet{pooled: true}
}

func putPacket(p *Packet) {
	poolPuts.Add(1)
	p.Type, p.Tag, p.Payload, p.Trace = 0, 0, nil, TraceContext{}
	p.enc, p.pbuf = nil, nil
	packets.Put(p)
}

func getReadBuf(n int) *[]byte {
	poolGets.Add(1)
	if bp, ok := readBufs.Get().(*[]byte); ok {
		if cap(*bp) < n {
			*bp = make([]byte, n)
		} else {
			*bp = (*bp)[:n]
		}
		return bp
	}
	poolMisses.Add(1)
	b := make([]byte, n)
	return &b
}

func putReadBuf(bp *[]byte) {
	poolPuts.Add(1)
	*bp = (*bp)[:0]
	readBufs.Put(bp)
}
