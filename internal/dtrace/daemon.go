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
// like every telemetry registry use).
//
// An empty collector address disables tracing entirely — the returned
// tracer is nil, which every instrumentation site accepts — so daemons
// call this unconditionally. The returned stop function flushes and
// closes the exporter (a no-op when disabled); defer it next to the
// server's own Close.
func ForDaemon(service, collector string, sampleEvery int, metrics *telemetry.Registry) (*Tracer, func()) {
	if collector == "" {
		return nil, func() {}
	}
	wc := wire.NewClient(2 * time.Second)
	ex := NewExporter(ExporterConfig{Client: wc, Addr: collector, Metrics: metrics})
	tr := New(Config{Service: service, SampleEvery: sampleEvery, Metrics: metrics, Sink: ex})
	return tr, func() {
		ex.Close()
		wc.Close()
	}
}
