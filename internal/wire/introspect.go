package wire

import (
	"fmt"
	"time"

	"everyware/internal/telemetry"
)

// Telemetry introspection message type (range 110-119). A MsgTelemetry
// request carries an optional metric-name prefix; the reply carries the
// daemon's encoded metrics snapshot. Every Server answers it
// automatically, so any daemon built on the lingua franca can be polled by
// ew top without per-service code.
const (
	MsgTelemetry MsgType = 110
)

// snapshotVersion guards the snapshot encoding against future layout
// changes.
const snapshotVersion = 1

// Histogram exemplars ride the snapshot as a trailing extension section
// appended after the samples, the same interop discipline as the trace
// trailer on packets: a pre-exemplar decoder reads exactly the declared
// sample count and ignores trailing bytes, so old pollers skip the
// extension; a current decoder parses it only behind the magic guard, so
// pre-exemplar snapshots (no trailing bytes) decode unchanged. The
// snapshot version byte therefore stays at 1.
var snapExtMagic = [4]byte{'E', 'W', 'X', 'S'}

const (
	snapExtVersion = 1
	// name index (4) + bucket (1) + trace ID (8) + nanos (8)
	snapExemplarBytes = 21
)

// EncodeSnapshot serializes a metrics snapshot in the lingua franca
// encoding.
func EncodeSnapshot(s telemetry.Snapshot) []byte {
	e := NewEncoder(64 + 48*len(s.Samples))
	e.PutUint8(snapshotVersion)
	e.PutString(s.ID)
	e.PutInt64(s.TakenUnixNanos)
	e.PutInt64(s.UptimeNanos)
	e.PutUint32(uint32(len(s.Samples)))
	nex := 0
	for _, sm := range s.Samples {
		e.PutString(sm.Name)
		e.PutUint8(uint8(sm.Kind))
		switch sm.Kind {
		case telemetry.KindCounter, telemetry.KindGauge:
			e.PutInt64(sm.Value)
		case telemetry.KindFloatGauge:
			e.PutFloat64(sm.Float)
		case telemetry.KindHistogram:
			e.PutInt64(sm.Hist.Count)
			e.PutInt64(sm.Hist.SumNanos)
			e.PutUint32(uint32(len(sm.Hist.Buckets)))
			for _, b := range sm.Hist.Buckets {
				e.PutInt64(b)
			}
			nex += len(sm.Hist.Exemplars)
		}
	}
	if nex > 0 {
		encodeSnapshotExt(e, s)
	}
	return e.Bytes()
}

// encodeSnapshotExt appends the exemplar extension. Exemplars whose
// bucket index does not fit the wire layout (one byte, within the
// histogram's bucket array) are dropped rather than corrupting the
// section.
func encodeSnapshotExt(e *Encoder, s telemetry.Snapshot) {
	type rec struct {
		idx int
		ex  telemetry.Exemplar
	}
	recs := make([]rec, 0, 8)
	for i, sm := range s.Samples {
		if sm.Kind != telemetry.KindHistogram || sm.Hist == nil {
			continue
		}
		for _, ex := range sm.Hist.Exemplars {
			if ex.Bucket < 0 || ex.Bucket > 255 || ex.Bucket >= len(sm.Hist.Buckets) || ex.TraceID == 0 {
				continue
			}
			recs = append(recs, rec{idx: i, ex: ex})
		}
	}
	if len(recs) == 0 {
		return
	}
	e.Append(snapExtMagic[:])
	e.PutUint8(snapExtVersion)
	e.PutUint32(uint32(len(recs)))
	for _, r := range recs {
		e.PutUint32(uint32(r.idx))
		e.PutUint8(uint8(r.ex.Bucket))
		e.PutUint64(r.ex.TraceID)
		e.PutInt64(r.ex.Nanos)
	}
}

// decodeSnapshotExt parses a trailing exemplar extension into s, if the
// remaining bytes carry one. Trailing bytes without the magic are
// ignored (an unknown future extension); a malformed section behind a
// valid magic is an error. Records referencing out-of-range samples or
// buckets are skipped — a newer encoder may know layouts we do not.
func decodeSnapshotExt(d *Decoder, s *telemetry.Snapshot) error {
	if d.Remaining() < len(snapExtMagic)+1 {
		return nil
	}
	rest := d.buf[d.off:]
	for i := range snapExtMagic {
		if rest[i] != snapExtMagic[i] {
			return nil
		}
	}
	d.off += len(snapExtMagic)
	ver, err := d.Uint8()
	if err != nil {
		return err
	}
	if ver != snapExtVersion {
		// A future extension version: ignore the rest of the payload
		// rather than guessing at its layout.
		d.off = len(d.buf)
		return nil
	}
	n, err := d.Count(snapExemplarBytes)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		idx, err := d.Uint32()
		if err != nil {
			return err
		}
		bucket, err := d.Uint8()
		if err != nil {
			return err
		}
		tid, err := d.Uint64()
		if err != nil {
			return err
		}
		nanos, err := d.Int64()
		if err != nil {
			return err
		}
		if int(idx) >= len(s.Samples) || tid == 0 {
			continue
		}
		sm := &s.Samples[idx]
		if sm.Kind != telemetry.KindHistogram || sm.Hist == nil || int(bucket) >= len(sm.Hist.Buckets) {
			continue
		}
		sm.Hist.Exemplars = append(sm.Hist.Exemplars, telemetry.Exemplar{
			Bucket:  int(bucket),
			TraceID: tid,
			Nanos:   nanos,
		})
	}
	return nil
}

// DecodeSnapshot parses a snapshot encoded by EncodeSnapshot.
func DecodeSnapshot(buf []byte) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	d := NewDecoder(buf)
	ver, err := d.Uint8()
	if err != nil {
		return s, err
	}
	if ver != snapshotVersion {
		return s, fmt.Errorf("wire: unsupported snapshot version %d", ver)
	}
	if s.ID, err = d.String(); err != nil {
		return s, err
	}
	if s.TakenUnixNanos, err = d.Int64(); err != nil {
		return s, err
	}
	if s.UptimeNanos, err = d.Int64(); err != nil {
		return s, err
	}
	// name(4+) + kind(1) + value(8)
	n, err := d.Count(13)
	if err != nil {
		return s, err
	}
	s.Samples = make([]telemetry.Sample, 0, n)
	for i := 0; i < n; i++ {
		var sm telemetry.Sample
		if sm.Name, err = d.String(); err != nil {
			return s, err
		}
		kind, err := d.Uint8()
		if err != nil {
			return s, err
		}
		sm.Kind = telemetry.Kind(kind)
		switch sm.Kind {
		case telemetry.KindCounter, telemetry.KindGauge:
			if sm.Value, err = d.Int64(); err != nil {
				return s, err
			}
		case telemetry.KindFloatGauge:
			if sm.Float, err = d.Float64(); err != nil {
				return s, err
			}
		case telemetry.KindHistogram:
			h := &telemetry.HistogramData{}
			if h.Count, err = d.Int64(); err != nil {
				return s, err
			}
			if h.SumNanos, err = d.Int64(); err != nil {
				return s, err
			}
			nb, err := d.Count(8)
			if err != nil {
				return s, err
			}
			h.Buckets = make([]int64, nb)
			for b := 0; b < nb; b++ {
				if h.Buckets[b], err = d.Int64(); err != nil {
					return s, err
				}
			}
			sm.Hist = h
		default:
			return s, fmt.Errorf("wire: unknown sample kind %d", kind)
		}
		s.Samples = append(s.Samples, sm)
	}
	if err := decodeSnapshotExt(d, &s); err != nil {
		return s, err
	}
	return s, nil
}

// FetchSnapshot polls addr's metrics over the wire protocol, filtered to
// names starting with prefix ("" for everything).
func FetchSnapshot(c *Client, addr, prefix string, timeout time.Duration) (telemetry.Snapshot, error) {
	req := NewRequest(MsgTelemetry, MessageFunc(func(e *Encoder) {
		e.PutString(prefix)
	}))
	resp, err := c.Call(addr, req, timeout)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer resp.Release()
	return DecodeSnapshot(resp.Payload)
}
