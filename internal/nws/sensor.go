package nws

import (
	"sync"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/wire"
)

// Prober measures one aspect of local resource performance and returns a
// scalar (e.g. integer ops/s available to a guest process). CPUProbe is
// the default.
type Prober func() float64

// CPUProbe measures deliverable integer throughput with a short spin
// benchmark — a portable stand-in for the NWS CPU sensor. The returned
// value is loop iterations per second; ambient load depresses it.
func CPUProbe() float64 {
	const iters = 2_000_000
	start := time.Now()
	x := uint64(1)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	_ = x
	return iters / elapsed
}

// SensorConfig parameterizes a sensor daemon.
type SensorConfig struct {
	// Name identifies the host the sensor runs on (the Resource half of
	// its measurement keys).
	Name string
	// MemoryAddr is the measurement memory to report to.
	MemoryAddr string
	// Peers are hosts to measure network round-trip times to (each must
	// run a lingua franca server; MsgPing is answered by every EveryWare
	// daemon).
	Peers []string
	// Period is the measurement interval (default 10s).
	Period time.Duration
	// CPU is the local compute prober (default CPUProbe; nil-able for
	// network-only sensors by setting DisableCPU).
	CPU        Prober
	DisableCPU bool
}

// pingTimeout bounds each RTT probe and each report to the measurement
// memory.
const pingTimeout = 2 * time.Second

// Sensor periodically measures local CPU availability and network RTTs to
// peers, reporting each series to the measurement memory.
type Sensor struct {
	cfg    SensorConfig
	wc     *wire.Client
	mc     *Client
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	cycles int64
	mu     sync.Mutex
}

// NewSensor constructs a sensor.
func NewSensor(cfg SensorConfig) *Sensor {
	if cfg.Period <= 0 {
		cfg.Period = 10 * time.Second
	}
	if cfg.CPU == nil {
		cfg.CPU = CPUProbe
	}
	wc := wire.NewClient(pingTimeout)
	return &Sensor{
		cfg:  cfg,
		wc:   wc,
		mc:   NewClient(wc, cfg.MemoryAddr, pingTimeout),
		done: make(chan struct{}),
	}
}

// Start launches the measurement loop.
func (s *Sensor) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.Period)
		defer t.Stop()
		s.MeasureOnce()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.MeasureOnce()
			}
		}
	}()
}

// MeasureOnce performs one measurement sweep (also used by tests).
func (s *Sensor) MeasureOnce() {
	if !s.cfg.DisableCPU {
		v := s.cfg.CPU()
		_ = s.mc.Report(forecast.Key{Resource: s.cfg.Name, Event: "cpu_ops"}, v)
	}
	for _, peer := range s.cfg.Peers {
		key := forecast.Key{Resource: s.cfg.Name + "->" + peer, Event: "rtt"}
		rtt, err := s.wc.Ping(peer, pingTimeout)
		if err != nil {
			if wire.IsTimeout(err) {
				// The ping took at least the full timeout: report that as
				// the sample so forecasts (and the time-outs derived from
				// them) adapt upward instead of staying optimistic.
				_ = s.mc.Report(key, pingTimeout.Seconds())
			}
			continue // fast failures (refused, reset) produce no sample
		}
		_ = s.mc.Report(key, rtt.Seconds())
	}
	s.mu.Lock()
	s.cycles++
	s.mu.Unlock()
}

// Cycles reports completed measurement sweeps.
func (s *Sensor) Cycles() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycles
}

// Close stops the sensor.
func (s *Sensor) Close() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
	s.wc.Close()
}
