package wire

import (
	"bytes"
	"testing"
	"time"
)

func BenchmarkCodecEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Encoder
		e.PutUint64(uint64(i))
		e.PutString("gossip@host:9001")
		e.PutFloat64(3.14)
		e.PutBytes(make([]byte, 64))
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	var e Encoder
	e.PutUint64(42)
	e.PutString("gossip@host:9001")
	e.PutFloat64(3.14)
	e.PutBytes(make([]byte, 64))
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		if _, err := d.Uint64(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.String(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Float64(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketWriteRead(b *testing.B) {
	payload := make([]byte, 256)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePacket(&buf, &Packet{Type: 7, Tag: uint64(i), Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadPacket(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// newEchoService stands up an echo Service on the given transport and
// returns its address plus a connected client. The handler echoes on the
// pooled path: the reply encodes the request payload straight into a
// pooled buffer, so a steady-state round trip allocates nothing
// server-side.
func newEchoService(tb testing.TB, tr Transport) (string, *Client) {
	tb.Helper()
	svc := NewService(ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: tr, Silent: true})
	svc.Handle(benchEchoMsg, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		return NewRawRequest(benchEchoMsg, req.Payload), nil
	}))
	addr, err := svc.Start()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	return addr, svc.Client()
}

func benchRoundTrip(b *testing.B, tr Transport) {
	addr, c := newEchoService(b, tr)
	payload := make([]byte, 128)
	// Hoisted as a Message so the interface box is paid once, not per call.
	var msg Message = RawMessage(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Call(addr, NewRequest(benchEchoMsg, msg), time.Second)
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
}

// BenchmarkRoundTripTCP measures one full lingua franca request/response
// over real TCP loopback — the cost every EveryWare service call pays on
// the default substrate.
func BenchmarkRoundTripTCP(b *testing.B) { benchRoundTrip(b, TCP) }

// BenchmarkRoundTripMem measures the same round trip over the in-memory
// transport: the protocol-overhead floor with the kernel out of the
// picture.
func BenchmarkRoundTripMem(b *testing.B) { benchRoundTrip(b, NewMemTransport()) }

// BenchmarkLoopbackRoundTrip is the historical name for the TCP round
// trip, kept so recorded BENCH JSONs stay comparable across commits.
func BenchmarkLoopbackRoundTrip(b *testing.B) { benchRoundTrip(b, TCP) }

func benchConcurrentCalls(b *testing.B, tr Transport) {
	addr, c := newEchoService(b, tr)
	payload := make([]byte, 128)
	var msg Message = RawMessage(payload)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := c.Call(addr, NewRequest(benchEchoMsg, msg), time.Second)
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	})
}

// BenchmarkConcurrentCallsTCP drives many goroutines through one shared
// client connection: the correlation-tag demux multiplexes all in-flight
// calls over a single TCP stream.
func BenchmarkConcurrentCallsTCP(b *testing.B) { benchConcurrentCalls(b, TCP) }

// BenchmarkConcurrentCallsMem is the same demux throughput measurement
// over the in-memory transport.
func BenchmarkConcurrentCallsMem(b *testing.B) { benchConcurrentCalls(b, NewMemTransport()) }

// benchPipelined drives windows of Client.Go calls from a single
// goroutine: all requests in a window hit the stream before the first
// reply is awaited, so the cost per call approaches one packet
// serialization instead of one full round trip.
func benchPipelined(b *testing.B, tr Transport) {
	addr, c := newEchoService(b, tr)
	payload := make([]byte, 128)
	var msg Message = RawMessage(payload)
	const depth = 16
	calls := make([]*PendingCall, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		n := depth
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			calls[j] = c.Go(addr, NewRequest(benchEchoMsg, msg), time.Second)
		}
		for j := 0; j < n; j++ {
			resp, err := calls[j].Wait()
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	}
}

// BenchmarkPipelinedCallsTCP measures the per-call cost with 16 calls in
// flight on one TCP connection.
func BenchmarkPipelinedCallsTCP(b *testing.B) { benchPipelined(b, TCP) }

// BenchmarkPipelinedCallsMem is the same measurement over the in-memory
// transport.
func BenchmarkPipelinedCallsMem(b *testing.B) { benchPipelined(b, NewMemTransport()) }
