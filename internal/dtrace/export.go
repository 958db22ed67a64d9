package dtrace

import (
	"sync"
	"time"

	"everyware/internal/outbox"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ExporterConfig parameterizes an Exporter.
type ExporterConfig struct {
	// Client is the wire client used to ship batches (typically the
	// daemon's Service client). Required.
	Client *wire.Client
	// Addr is the trace collector's address (a logsvc daemon). Required.
	Addr string
	// Timeout bounds each export call (default 2s).
	Timeout time.Duration
	// Buffer bounds the spans queued for export (default 4096). When the
	// queue is full new spans are dropped — tracing must never block or
	// grow without bound — and the drop is counted.
	Buffer int
	// Metrics, when set, records "dtrace.export.spans",
	// "dtrace.export.dropped", and "dtrace.export.errors". Nil discards.
	Metrics *telemetry.Registry
}

// Exporter ships finished spans to the trace collector in batches of up
// to outbox.MaxBatch, best-effort: a full queue drops spans (counted,
// never blocking), and a failed export drops the batch (counted, no
// retry — MsgTraceExport is not idempotent and duplicated spans would
// corrupt trees). Every emitted span is either exported or counted
// dropped. It implements Sink.
type Exporter struct {
	cfg ExporterConfig
	out *outbox.Sender

	mu     sync.Mutex
	queue  []Span
	closed bool

	batch []Span // the round in flight, touched only by out's goroutine
}

// NewExporter starts the exporter; Close stops it.
func NewExporter(cfg ExporterConfig) *Exporter {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 4096
	}
	ex := &Exporter{cfg: cfg}
	ex.out = outbox.NewSender(ex.shipNext)
	return ex
}

// Emit implements Sink: it enqueues s for export, dropping it (and
// counting the drop) if the queue is full or the exporter is closed.
func (ex *Exporter) Emit(s Span) {
	ex.mu.Lock()
	ok := !ex.closed && len(ex.queue) < ex.cfg.Buffer
	if ok {
		ex.queue = append(ex.queue, s)
	}
	ex.mu.Unlock()
	if !ok {
		ex.cfg.Metrics.Counter("dtrace.export.dropped").Inc()
		return
	}
	ex.out.Kick()
}

// shipNext sends the oldest queued spans to the collector as one batch
// and reports whether there were any. Only the sender goroutine calls it.
// The batch encodes into a pooled request buffer; the bare-ack reply is
// released immediately.
func (ex *Exporter) shipNext() bool {
	ex.mu.Lock()
	n := min(len(ex.queue), outbox.MaxBatch)
	ex.batch = append(ex.batch[:0], ex.queue[:n]...)
	ex.queue = ex.queue[:copy(ex.queue, ex.queue[n:])]
	ex.mu.Unlock()
	if n == 0 {
		return false
	}
	if err := ex.cfg.Client.CallMsg(ex.cfg.Addr, MsgTraceExport, SpanList(ex.batch), nil, ex.cfg.Timeout); err != nil {
		ex.cfg.Metrics.Counter("dtrace.export.errors").Inc()
		ex.cfg.Metrics.Counter("dtrace.export.dropped").Add(int64(n))
		return true
	}
	ex.cfg.Metrics.Counter("dtrace.export.spans").Add(int64(n))
	return true
}

// Close refuses further spans, ships the queued ones and stops the
// exporter.
func (ex *Exporter) Close() {
	ex.mu.Lock()
	ex.closed = true
	ex.mu.Unlock()
	ex.out.Close()
}

// Fetch retrieves up to max spans from the collector at addr, filtered
// to one trace when traceID is non-zero (0 = all traces). It is the
// client half of MsgTraceFetch, shared by ew trace, tests, and the chaos
// scenario.
func Fetch(wc *wire.Client, addr string, max int, traceID uint64, timeout time.Duration) ([]Span, error) {
	req := wire.NewRequest(MsgTraceFetch, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(max))
		e.PutUint64(traceID)
	}))
	resp, err := wc.Call(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return DecodeSpans(resp.Payload)
}
