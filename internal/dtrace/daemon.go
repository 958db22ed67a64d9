package dtrace

import (
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ForDaemon wires up a daemon's tracing from its command-line flags: a
// tracer stamped with service, sampling one root trace in every
// sampleEvery (<=1 records all), exporting batches to the collector (a
// logsvc daemon) at collector. Export metrics land in metrics (nil-safe,
// like every telemetry registry use). When slow is non-zero,
// head-unsampled spans are buffered and whole traces promoted to the
// collector on an error outcome or a span at least slow long — the
// traces a 1-in-N head policy would have dropped; a zero slow keeps
// plain head sampling.
//
// An empty collector address disables tracing entirely — the returned
// tracer is nil, which every instrumentation site accepts — so daemons
// call this unconditionally. The returned stop function flushes and
// closes the exporter (a no-op when disabled); defer it next to the
// server's own Close.
func ForDaemon(service, collector string, sampleEvery int, slow time.Duration, metrics *telemetry.Registry) (*Tracer, func()) {
	if collector == "" {
		return nil, func() {}
	}
	wc := wire.NewClient(2 * time.Second)
	ex := NewExporter(ExporterConfig{Client: wc, Addr: collector, Metrics: metrics})
	cfg := Config{Service: service, SampleEvery: sampleEvery, Sink: ex}
	if slow > 0 {
		cfg.Tail = &TailConfig{SlowThreshold: slow, Metrics: metrics}
	}
	tr := New(cfg)
	return tr, func() {
		ex.Close()
		wc.Close()
	}
}
