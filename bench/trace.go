package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// The traced run sees the program from outside only, three ways:
//
//	T  countingTransport wraps the public wire.Transport and counts what
//	   crosses it (messages, bytes, write calls, dials, open connections);
//	S  spanLog records a span around each public call the driver makes;
//	M  registryDelta diffs the daemons' public Metrics() snapshots.
//
// Spans inside the program are a later issue.

// countingTransport is the T wrapper. It counts on the write side only, so
// a message is counted once — by whichever end sent it.
type countingTransport struct {
	inner wire.Transport

	msgs, bytes, writes atomic.Int64
	dials, open         atomic.Int64
	inflightMax         atomic.Int64
}

// transportCounts is one reading of the T counters, plus the wire
// package's process-wide pool statistics, which are read at the same two
// instants.
type transportCounts struct {
	msgs, bytes, writes, dials float64
	poolGets, poolMisses       float64
}

func (t *countingTransport) counts() transportCounts {
	gets, _, misses := wire.PoolStats()
	return transportCounts{
		msgs: float64(t.msgs.Load()), bytes: float64(t.bytes.Load()),
		writes: float64(t.writes.Load()), dials: float64(t.dials.Load()),
		poolGets: float64(gets), poolMisses: float64(misses),
	}
}

func (t *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := t.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	t.open.Add(1)
	return &countingConn{Conn: c, t: t, dialed: true}, nil
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, t: t}, nil
}

type countingListener struct {
	net.Listener
	t *countingTransport
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: l.t}, nil
}

// countingConn counts one end of a connection. Writes are serialized per
// connection by wire.Conn, so the frame parser needs no lock of its own;
// the mutex only makes that assumption harmless if it ever stops holding.
type countingConn struct {
	net.Conn
	t      *countingTransport
	dialed bool
	closed atomic.Bool

	mu   sync.Mutex
	hdr  [wire.HeaderSize]byte
	hdrN int
	body int // bytes of the current frame's body still to come
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.writes.Add(1)
	c.t.bytes.Add(int64(n))
	if v := wire.PipelineInflight(); v > c.t.inflightMax.Load() {
		c.t.inflightMax.Store(v) // racy max: a lost update costs one sample
	}
	c.mu.Lock()
	c.t.msgs.Add(int64(c.frames(p[:n])))
	c.mu.Unlock()
	return n, err
}

// frames walks the lingua franca framing (fixed header, declared body
// length) across write boundaries and returns how many frames completed
// in p. It is what keeps wire.msgs_per_op exact if a later change batches
// several packets into one write: writes fall, messages do not.
func (c *countingConn) frames(p []byte) int {
	done := 0
	for len(p) > 0 {
		if c.body > 0 {
			k := min(c.body, len(p))
			c.body -= k
			p = p[k:]
			if c.body == 0 {
				done++
			}
			continue
		}
		k := copy(c.hdr[c.hdrN:], p)
		c.hdrN += k
		p = p[k:]
		if c.hdrN == wire.HeaderSize {
			c.hdrN = 0
			c.body = int(binary.BigEndian.Uint32(c.hdr[wire.HeaderSize-4:]))
			if c.body == 0 {
				done++
			}
		}
	}
	return done
}

func (c *countingConn) Close() error {
	if c.dialed && c.closed.CompareAndSwap(false, true) {
		c.t.open.Add(-1)
	}
	return c.Conn.Close()
}

// span is one S record. IDs are 1-based positions in the log; Parent 0
// marks an op's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
}

// spanLog keeps spans in memory and writes them out when the benchmark
// ends. A nil *spanLog records nothing, which is how the untraced run uses
// the same op code.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its handle (0 when tracing is off).
func (l *spanLog) begin(name string, op uint64, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.epoch)), Parent: parent, Op: op})
	return len(l.spans)
}

func (l *spanLog) end(h int) {
	if l == nil || h == 0 {
		return
	}
	l.spans[h-1].End = int64(time.Since(l.epoch))
}

// durationsUS returns the durations in µs of every finished span named
// name.
func (l *spanLog) durationsUS(name string) []float64 {
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// maxSpansWritten bounds the span file: report-tcp produces a third of a
// million spans in ten seconds, and the file is for reading a few ops'
// trees, not for recomputing percentiles (those use every span in memory).
const maxSpansWritten = 20000

// writeSpans writes bench/out/<workload>.spans.json.
func writeSpans(workload string, env fingerprint, l *spanLog) (string, error) {
	f := struct {
		Workload  string      `json:"workload"`
		Env       fingerprint `json:"env"`
		Total     int         `json:"total_spans"`
		Truncated bool        `json:"truncated"`
		Spans     []span      `json:"spans"`
	}{Workload: workload, Env: env, Total: len(l.spans), Spans: l.spans}
	if len(f.Spans) > maxSpansWritten {
		f.Spans, f.Truncated = f.Spans[:maxSpansWritten], true
	}
	for i := range f.Spans {
		f.Spans[i].ID = i + 1
	}
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// registrySum is the M view: counters and histogram (count, sum) totals
// over a set of registries, keyed by metric name.
type registrySum struct {
	counters map[string]int64
	histN    map[string]int64
	histNS   map[string]int64
}

// registries is every public telemetry registry of a fleet.
type registries []*telemetry.Registry

func (regs registries) snapshot() registrySum {
	s := registrySum{counters: map[string]int64{}, histN: map[string]int64{}, histNS: map[string]int64{}}
	for _, r := range regs {
		for _, sm := range r.Snapshot("").Samples {
			switch sm.Kind {
			case telemetry.KindCounter:
				s.counters[sm.Name] += sm.Value
			case telemetry.KindHistogram:
				s.histN[sm.Name] += sm.Hist.Count
				s.histNS[sm.Name] += sm.Hist.SumNanos
			}
		}
	}
	return s
}

// registryDelta is after − before.
type registryDelta struct{ before, after registrySum }

func (d registryDelta) counter(name string) float64 {
	return float64(d.after.counters[name] - d.before.counters[name])
}

// hist returns the number of observations and their total in µs over every
// histogram whose name starts with prefix (span histograms are named
// "<span>.<outcome>", so a prefix sums the outcomes).
func (d registryDelta) hist(prefix string) (n, us float64) {
	for name, c := range d.after.histN {
		if strings.HasPrefix(name, prefix) {
			n += float64(c - d.before.histN[name])
			us += float64(d.after.histNS[name]-d.before.histNS[name]) / 1e3
		}
	}
	return n, us
}
