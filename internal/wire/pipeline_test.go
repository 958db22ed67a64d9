package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// TestLateReplyAfterTimeout covers the pooled-buffer hazard on the
// timeout path, for Call and for Go alike: a reply that arrives after its
// caller gave up must be dropped and released by the demultiplexer —
// never delivered to a later call that reuses the pooled PendingCall —
// and the drop must be counted.
func TestLateReplyAfterTimeout(t *testing.T) {
	release := make(chan struct{})
	svc := NewService(ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: NewMemTransport(), Silent: true})
	svc.Handle(msgGate, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		d := NewDecoder(req.Payload)
		slow, err := d.Uint8()
		if err != nil {
			return nil, err
		}
		if slow == 1 {
			<-release
		}
		return Reply(msgGate, MessageFunc(func(e *Encoder) { e.PutUint8(slow) })), nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c := svc.Client()
	gate := func(b uint8) *Packet {
		return NewRequest(msgGate, MessageFunc(func(e *Encoder) { e.PutUint8(b) }))
	}

	drops := lateDrops.Load()

	// A Call and a Go, each stalled in the handler past its timeout.
	if _, err := c.Call(addr, gate(1), 100*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("slow call returned %v, want timeout", err)
	}
	if _, err := c.Go(addr, gate(1), 100*time.Millisecond).Wait(); !IsTimeout(err) {
		t.Fatalf("slow go returned %v, want timeout", err)
	}

	// Unblock the stalled handler: the late replies now race toward the
	// client on the connection the timeouts left cached. Subsequent calls
	// of both forms reuse that connection with fresh tags and reuse the
	// pooled calls; none of them may receive a late reply (payload byte 1)
	// in place of its own echo (payload byte 0).
	close(release)
	for i := 0; i < 50; i++ {
		var resp *Packet
		var err error
		if i%2 == 0 {
			resp, err = c.Call(addr, gate(0), time.Second)
		} else {
			resp, err = c.Go(addr, gate(0), time.Second).Wait()
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		d := NewDecoder(resp.Payload)
		got, derr := d.Uint8()
		resp.Release()
		if derr != nil {
			t.Fatalf("call %d: %v", i, derr)
		}
		if got != 0 {
			t.Fatalf("call %d received payload byte %d: late reply misdelivered to a reused pooled call", i, got)
		}
	}

	// Both late replies were dropped through the release path (the
	// counter increments after the pooled buffers go back), so waiting
	// for them also proves the buffers were not leaked.
	deadline := time.Now().Add(2 * time.Second)
	for lateDrops.Load() < drops+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := lateDrops.Load() - drops; got < 2 {
		t.Fatalf("%d of 2 late replies counted as dropped", got)
	}
}

// TestWaitReportsEveryFailure: a call that fails — on a connection that
// breaks, on a send, or on Client.Go's dial — reports it from its one
// Wait, and the pooled call comes back clean for the next one.
func TestWaitReportsEveryFailure(t *testing.T) {
	m := NewMemTransport()
	l, err := m.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sendErr *SendError

	// The peer reads the request and hangs up without replying.
	conn, err := DialOn(m, "peer", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	pc := conn.Go(&Packet{Type: MsgPing}, time.Second)
	if _, err := ReadPacket(peer); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	if _, err := pc.Wait(); err == nil || IsTimeout(err) || errors.As(err, &sendErr) {
		t.Fatalf("wait on a broken connection: err = %v, want the connection's error", err)
	}
	if conn.Broken() == nil {
		t.Fatal("connection not marked broken")
	}
	if _, err := conn.Go(&Packet{Type: MsgPing}, time.Second).Wait(); !errors.As(err, &sendErr) {
		t.Fatalf("go on a broken connection: err = %v, want *SendError", err)
	}

	// The request cannot be written: the local end is already closed.
	conn, err = DialOn(m, "peer", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Go(&Packet{Type: MsgPing}, time.Second).Wait(); !errors.As(err, &sendErr) {
		t.Fatalf("go on a closed connection: err = %v, want *SendError", err)
	}

	// Client.Go cannot dial.
	addr, c := newEchoService(t, m)
	if _, err := c.Go("nobody", NewRequest(MsgPing, nil), time.Second).Wait(); err == nil {
		t.Fatal("go to an unbound address succeeded")
	}

	resp, err := c.Go(addr, NewRequest(benchEchoMsg, RawMessage("ok")), time.Second).Wait()
	if err != nil || string(resp.Payload) != "ok" {
		t.Fatalf("go after failures: %q, %v", resp.Payload, err)
	}
	resp.Release()
}

// TestZeroTimeoutMeansNoDeadline: a timeout <= 0 waits as long as the
// reply takes, on both call forms.
func TestZeroTimeoutMeansNoDeadline(t *testing.T) {
	svc := NewService(ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: NewMemTransport(), Silent: true})
	svc.Handle(msgSlow, HandlerFunc(func(_ string, req *Packet) (*Packet, error) {
		time.Sleep(20 * time.Millisecond)
		return &Packet{Type: msgSlow}, nil
	}))
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c := svc.Client()
	if _, err := c.Call(addr, &Packet{Type: msgSlow}, 0); err != nil {
		t.Fatalf("call with timeout 0: %v", err)
	}
	for _, timeout := range []time.Duration{0, -time.Second} {
		if _, err := c.Go(addr, &Packet{Type: msgSlow}, timeout).Wait(); err != nil {
			t.Fatalf("go with timeout %v: %v", timeout, err)
		}
	}
}

// TestMemRoundTripAllocGate is the allocation regression gate for the
// pooled hot path: a steady-state round trip over the in-memory
// transport — one Call, or a 3-way Client.Go fan-out collected with
// Wait — must stay at or below 2 allocations per operation, whole
// process (client, demux, server, handler). `make bench-wire` runs it so
// a pooling regression fails wire CI, not just drifts a benchmark.
func TestMemRoundTripAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	addr, c := newEchoService(t, NewMemTransport())
	payload := make([]byte, 128)
	// One interface box, hoisted out of the measured loop like every
	// migrated daemon call site hoists its request message.
	var msg Message = RawMessage(payload)
	call := func() {
		resp, err := c.Call(addr, NewRequest(benchEchoMsg, msg), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	var calls [3]*PendingCall
	fanOut := func() {
		for i := range calls {
			calls[i] = c.Go(addr, NewRequest(benchEchoMsg, msg), time.Second)
		}
		for _, pc := range calls {
			resp, err := pc.Wait()
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{{"call", call}, {"go x3", fanOut}} {
		// Warm the pools and the connection's demux loop out of the
		// measurement window.
		for i := 0; i < 200; i++ {
			tc.op()
		}
		if avg := testing.AllocsPerRun(300, tc.op); avg > 2 {
			t.Fatalf("mem round trip (%s) allocates %.2f/op; the pooled-path gate is 2", tc.name, avg)
		}
	}
}

// interopFrame is one frame of the pipelined interop fuzz: an arbitrary
// message with or without a trace-context trailer.
type interopFrame struct {
	typ     MsgType
	tag     uint64
	payload []byte
	tc      TraceContext
}

// deriveFrames carves a bounded pipeline of frames out of fuzz input.
func deriveFrames(data []byte) []interopFrame {
	var frames []interopFrame
	for len(data) > 0 && len(frames) < 8 {
		b := data[0]
		data = data[1:]
		fr := interopFrame{
			typ: MsgType(uint32(b)%250 + 2),
			// Tags stay below the reserved trace bit, as Conn tag counters do.
			tag: (uint64(b)*1000003 + uint64(len(data))) &^ traceTagBit,
		}
		n := int(b) % 64
		if n > len(data) {
			n = len(data)
		}
		fr.payload = data[:n]
		data = data[n:]
		if b&1 == 1 {
			fr.tc = TraceContext{
				TraceID:  uint64(b) + 1,
				SpanID:   uint64(n) + 7,
				ParentID: uint64(b >> 1),
				Sampled:  b&2 != 0,
			}
		}
		frames = append(frames, fr)
	}
	return frames
}

// refEncode hand-encodes one frame per the documented wire image —
// header, payload, optional trace trailer — byte for byte, the way a
// peer built before the pooled path (or in another language) would.
func refEncode(fr interopFrame) []byte {
	body := len(fr.payload)
	tag := fr.tag
	traced := fr.tc.Valid()
	if traced {
		tag |= traceTagBit
		body += traceTrailerLen
	}
	buf := make([]byte, 0, HeaderSize+body)
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = append(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(fr.typ))
	buf = binary.BigEndian.AppendUint64(buf, tag)
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = append(buf, fr.payload...)
	if traced {
		buf = binary.BigEndian.AppendUint64(buf, fr.tc.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, fr.tc.SpanID)
		buf = binary.BigEndian.AppendUint64(buf, fr.tc.ParentID)
		var flags byte
		if fr.tc.Sampled {
			flags = traceFlagSampled
		}
		buf = append(buf, flags)
		buf = binary.BigEndian.AppendUint32(buf, traceTrailerMagic)
	}
	return buf
}

// FuzzPipelinedFrameInterop checks both directions of wire-image
// compatibility for interleaved pipelined frames, with and without trace
// trailers:
//
//   - new -> old: the pooled WritePacket stream is byte-identical to the
//     hand-encoded reference image, so an old-style peer reading the
//     documented layout sees exactly what it always saw;
//   - old -> new: ReadPacket + ExtractTrace over the reference image
//     recover every frame's type, tag, payload, and trace context.
func FuzzPipelinedFrameInterop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0xFF, 0, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 0x01}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := deriveFrames(data)
		if len(frames) == 0 {
			return
		}
		// Pooled writer, frames back to back on one stream.
		var stream bytes.Buffer
		for _, fr := range frames {
			p := NewRequest(fr.typ, RawMessage(fr.payload))
			p.Tag = fr.tag
			p.Trace = fr.tc
			if err := WritePacket(&stream, p); err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		var ref bytes.Buffer
		for _, fr := range frames {
			ref.Write(refEncode(fr))
		}
		if !bytes.Equal(stream.Bytes(), ref.Bytes()) {
			t.Fatalf("pooled stream differs from the reference wire image\n got %x\nwant %x", stream.Bytes(), ref.Bytes())
		}
		// Pooled reader over the reference image.
		r := bytes.NewReader(ref.Bytes())
		for i, fr := range frames {
			p, err := ReadPacket(r)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			traced := p.ExtractTrace()
			if p.Type != fr.typ || p.Tag != fr.tag {
				t.Fatalf("frame %d: decoded type/tag %d/%d, want %d/%d", i, p.Type, p.Tag, fr.typ, fr.tag)
			}
			if !bytes.Equal(p.Payload, fr.payload) {
				t.Fatalf("frame %d: payload mismatch", i)
			}
			if traced != fr.tc.Valid() {
				t.Fatalf("frame %d: traced=%v, want %v", i, traced, fr.tc.Valid())
			}
			if traced && p.Trace != fr.tc {
				t.Fatalf("frame %d: trace context %+v, want %+v", i, p.Trace, fr.tc)
			}
			p.Release()
		}
		if r.Len() != 0 {
			t.Fatalf("%d trailing bytes after the last frame", r.Len())
		}
	})
}
