package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestLateReplyAfterTimeout covers the pooled-buffer hazard on the
// timeout path: a reply that arrives after its caller gave up must be
// dropped and released by the demultiplexer — never delivered to a later
// call on the same connection — and the drop must be counted.
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

	drops := lateDrops.Load()

	// First call: the handler stalls past the timeout.
	slowReq := NewRequest(msgGate, MessageFunc(func(e *Encoder) { e.PutUint8(1) }))
	if _, err := c.Call(addr, slowReq, 100*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("slow call returned %v, want timeout", err)
	}

	// Unblock the stalled handler: its reply now races toward the client
	// on the connection the timeout left cached. Subsequent calls reuse
	// that connection with fresh tags; none of them may receive the late
	// reply (payload byte 1) in place of its own echo (payload byte 0).
	close(release)
	for i := 0; i < 50; i++ {
		resp, err := c.Call(addr, NewRequest(msgGate, MessageFunc(func(e *Encoder) { e.PutUint8(0) })), time.Second)
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

	// The late reply was dropped through the release path (the counter
	// increments after the pooled buffers go back), so waiting for it
	// also proves the buffers were not leaked.
	deadline := time.Now().Add(2 * time.Second)
	for lateDrops.Load() == drops && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if lateDrops.Load() == drops {
		t.Fatal("late reply was never counted as dropped")
	}
}

// TestMemRoundTripAllocGate is the allocation regression gate for the
// pooled hot path: a steady-state round trip over the in-memory
// transport must stay at or below 2 allocations per operation, whole
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
	// Warm the pools and the connection's demux loop out of the
	// measurement window.
	for i := 0; i < 200; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(300, call); avg > 2 {
		t.Fatalf("mem round trip allocates %.2f/op; the pooled-path gate is 2", avg)
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
			// Tags stay below the reserved trace bit, as NextTag counters do.
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
