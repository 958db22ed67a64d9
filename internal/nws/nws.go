// Package nws implements the Network Weather Service as a deployable Grid
// service: sensors that periodically measure resource performance
// (network round-trip times between hosts, local compute availability),
// a measurement memory, and a forecast API — the "distributed dynamic
// performance forecasting service for Computational Grids" the EveryWare
// application components consult to anticipate load changes (sections 2.2
// and 3.1 of the paper; references [38], [39]).
//
// The forecasting mathematics lives in everyware/internal/forecast (the
// library EveryWare links into every component); this package wraps it in
// the service form: sensors report measurements over the lingua franca to
// a memory daemon, and any component can ask the memory for the current
// best forecast of any tracked series.
package nws

import (
	"math"
	"sync"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Lingua franca message types for the NWS (range 90-99).
const (
	// MsgReport stores one measurement (payload: resource, event, value).
	MsgReport wire.MsgType = 90
	// MsgForecast returns the best current forecast for a series.
	MsgForecast wire.MsgType = 91
)

// Forecast is a read. MsgReport appends a measurement to a series, so a
// retransmit would skew the forecasters — not idempotent.
func init() {
	wire.Define(MsgReport, "nws.report", false)
	wire.Define(MsgForecast, "nws.forecast", true)
	wire.Reserve(92, "nws.series")
	wire.Reserve(93, "nws.keys")
}

// Memory is the NWS measurement memory and forecaster daemon. It keeps a
// bounded raw-series ring per key alongside the forecasting battery.
type Memory struct {
	svc     *wire.Service
	reg     *forecast.Registry
	metrics *telemetry.Registry

	mu     sync.Mutex
	series map[forecast.Key][]float64
	// KeepRaw bounds raw measurements retained per key (default 256).
	KeepRaw int
}

// NewMemory constructs a memory daemon on TCP; call Start to serve.
func NewMemory() *Memory { return NewMemoryOn(nil) }

// NewMemoryOn constructs a memory daemon on the given wire transport
// (nil means TCP).
func NewMemoryOn(tr wire.Transport) *Memory {
	m := &Memory{
		svc:     wire.NewService(wire.ServiceConfig{Transport: tr, Silent: true}),
		reg:     forecast.NewRegistry(),
		series:  make(map[forecast.Key][]float64),
		KeepRaw: 256,
	}
	m.metrics = m.svc.Metrics()
	m.svc.Handle(MsgReport, wire.HandlerFunc(m.handleReport))
	m.svc.Handle(MsgForecast, wire.HandlerFunc(m.handleForecast))
	return m
}

// Start binds the listener and returns the bound address.
func (m *Memory) Start(addr string) (string, error) {
	bound, err := m.svc.StartAt(addr)
	if err == nil && m.metrics.ID() == "" {
		m.metrics.SetID("nws@" + bound)
	}
	return bound, err
}

// Addr returns the bound address.
func (m *Memory) Addr() string { return m.svc.Addr() }

// Close stops the daemon.
func (m *Memory) Close() { m.svc.Close() }

// Report stores one measurement (in-process use).
func (m *Memory) Report(key forecast.Key, v float64) {
	m.metrics.Counter("nws.reports").Inc()
	// Forecaster error: how far off was the prediction this measurement
	// now supersedes? The running gauge is the live analogue of the
	// offline MAE the trace package computes for the paper figures.
	if f, ok := m.reg.Forecast(key); ok {
		m.metrics.FloatGauge("nws.forecast.abs_err").Set(math.Abs(f.Value - v))
	}
	m.reg.Record(key, v)
	m.mu.Lock()
	s := append(m.series[key], v)
	if len(s) > m.KeepRaw {
		s = s[len(s)-m.KeepRaw:]
	}
	m.series[key] = s
	m.mu.Unlock()
}

// Forecast returns the best current prediction for key.
func (m *Memory) Forecast(key forecast.Key) (forecast.Forecast, bool) {
	return m.reg.Forecast(key)
}

// Series returns up to n recent raw measurements for key, oldest first.
func (m *Memory) Series(key forecast.Key, n int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.series[key]
	if n > len(s) {
		n = len(s)
	}
	out := make([]float64, n)
	copy(out, s[len(s)-n:])
	return out
}

// Keys returns tracked series keys, sorted.
func (m *Memory) Keys() []forecast.Key { return m.reg.Keys() }

func decodeKey(d *wire.Decoder) (forecast.Key, error) {
	var k forecast.Key
	var err error
	if k.Resource, err = d.String(); err != nil {
		return k, err
	}
	k.Event, err = d.String()
	return k, err
}

func (m *Memory) handleReport(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	key, err := decodeKey(d)
	if err != nil {
		return nil, err
	}
	v, err := d.Float64()
	if err != nil {
		return nil, err
	}
	m.Report(key, v)
	return wire.Reply(MsgReport, nil), nil
}

func (m *Memory) handleForecast(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	key, err := decodeKey(d)
	if err != nil {
		return nil, err
	}
	f, ok := m.Forecast(key)
	return wire.Reply(MsgForecast, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutBool(ok)
		e.PutFloat64(f.Value)
		e.PutString(f.Method)
		e.PutFloat64(f.MSE)
		e.PutFloat64(f.MAE)
		e.PutUint32(uint32(f.Samples))
	})), nil
}

// Client provides typed access to a remote Memory.
type Client struct {
	wc      *wire.Client
	addr    string
	timeout time.Duration
}

// NewClient returns a Client for the memory at addr.
func NewClient(wc *wire.Client, addr string, timeout time.Duration) *Client {
	return &Client{wc: wc, addr: addr, timeout: timeout}
}

func encodeKey(e *wire.Encoder, k forecast.Key) {
	e.PutString(k.Resource)
	e.PutString(k.Event)
}

// Report stores one measurement.
func (c *Client) Report(key forecast.Key, v float64) error {
	msg := wire.MessageFunc(func(e *wire.Encoder) {
		encodeKey(e, key)
		e.PutFloat64(v)
	})
	return c.wc.CallMsg(c.addr, MsgReport, msg, nil, c.timeout)
}

// Forecast fetches the best current prediction for key.
func (c *Client) Forecast(key forecast.Key) (forecast.Forecast, bool, error) {
	req := wire.NewRequest(MsgForecast, wire.MessageFunc(func(e *wire.Encoder) {
		encodeKey(e, key)
	}))
	resp, err := c.wc.Call(c.addr, req, c.timeout)
	if err != nil {
		return forecast.Forecast{}, false, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	ok, err := d.Bool()
	if err != nil {
		return forecast.Forecast{}, false, err
	}
	var f forecast.Forecast
	if f.Value, err = d.Float64(); err != nil {
		return f, false, err
	}
	if f.Method, err = d.String(); err != nil {
		return f, false, err
	}
	if f.MSE, err = d.Float64(); err != nil {
		return f, false, err
	}
	if f.MAE, err = d.Float64(); err != nil {
		return f, false, err
	}
	n, err := d.Uint32()
	if err != nil {
		return f, false, err
	}
	f.Samples = int(n)
	return f, ok, nil
}
