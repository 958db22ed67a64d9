package nws

import (
	"math"
	"testing"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/wire"
)

func startMemory(t *testing.T) *Memory {
	t.Helper()
	m := NewMemory()
	if _, err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestReportAndForecastOverWire(t *testing.T) {
	m := startMemory(t)
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	c := NewClient(wc, m.Addr(), time.Second)
	key := forecast.Key{Resource: "hostA", Event: "cpu_ops"}
	for i := 0; i < 20; i++ {
		if err := c.Report(key, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	f, ok, err := c.Forecast(key)
	if err != nil || !ok {
		t.Fatalf("forecast: ok=%v err=%v", ok, err)
	}
	if math.Abs(f.Value-1e6) > 1 {
		t.Fatalf("value = %v", f.Value)
	}
	if f.Samples != 20 || f.Method == "" {
		t.Fatalf("forecast = %+v", f)
	}
}

func TestForecastUnknownKey(t *testing.T) {
	m := startMemory(t)
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	c := NewClient(wc, m.Addr(), time.Second)
	_, ok, err := c.Forecast(forecast.Key{Resource: "nope", Event: "x"})
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestSeriesRetrievalAndBounding(t *testing.T) {
	m := startMemory(t)
	m.KeepRaw = 8
	key := forecast.Key{Resource: "h", Event: "rtt"}
	for i := 0; i < 20; i++ {
		m.Report(key, float64(i))
	}
	vs := m.Series(key, 100)
	if len(vs) != 8 {
		t.Fatalf("raw series = %d values, want 8 (KeepRaw)", len(vs))
	}
	if vs[0] != 12 || vs[7] != 19 {
		t.Fatalf("series = %v", vs)
	}
	vs = m.Series(key, 3)
	if len(vs) != 3 || vs[2] != 19 {
		t.Fatalf("tail = %v", vs)
	}
}

func TestKeysEnumerated(t *testing.T) {
	m := startMemory(t)
	m.Report(forecast.Key{Resource: "b", Event: "x"}, 1)
	m.Report(forecast.Key{Resource: "a", Event: "y"}, 1)
	keys := m.Keys()
	if len(keys) != 2 || keys[0].Resource != "a" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestSensorMeasuresCPUAndRTT(t *testing.T) {
	m := startMemory(t)
	// A peer daemon whose MsgPing the sensor will time.
	peer := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	peerAddr, err := peer.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	s := NewSensor(SensorConfig{
		Name:       "hostA",
		MemoryAddr: m.Addr(),
		Peers:      []string{peerAddr},
		CPU:        func() float64 { return 42e6 },
	})
	defer s.Close()
	s.MeasureOnce()
	s.MeasureOnce()

	cpuKey := forecast.Key{Resource: "hostA", Event: "cpu_ops"}
	f, ok := m.Forecast(cpuKey)
	if !ok || math.Abs(f.Value-42e6) > 1 {
		t.Fatalf("cpu forecast = %+v, %v", f, ok)
	}
	rttKey := forecast.Key{Resource: "hostA->" + peerAddr, Event: "rtt"}
	rf, ok := m.Forecast(rttKey)
	if !ok || rf.Value <= 0 || rf.Value > 1 {
		t.Fatalf("rtt forecast = %+v, %v", rf, ok)
	}
}

func TestSensorSkipsUnreachablePeers(t *testing.T) {
	m := startMemory(t)
	s := NewSensor(SensorConfig{
		Name:       "hostB",
		MemoryAddr: m.Addr(),
		Peers:      []string{"127.0.0.1:1"},
		DisableCPU: true,
	})
	defer s.Close()
	s.MeasureOnce()
	if len(m.Keys()) != 0 {
		t.Fatalf("unreachable peer produced samples: %v", m.Keys())
	}
}

func TestSensorPeriodicLoop(t *testing.T) {
	m := startMemory(t)
	s := NewSensor(SensorConfig{
		Name:       "hostC",
		MemoryAddr: m.Addr(),
		Period:     20 * time.Millisecond,
		CPU:        func() float64 { return 1 },
	})
	s.Start()
	defer s.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s.Cycles() >= 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sensor only completed %d cycles", s.Cycles())
}

// A negative period is unset, like zero: the sensor measures on the
// default period instead of panicking in time.NewTicker.
func TestSensorNegativePeriodMeansDefault(t *testing.T) {
	m := startMemory(t)
	s := NewSensor(SensorConfig{
		Name:       "hostD",
		MemoryAddr: m.Addr(),
		Period:     -time.Second,
		CPU:        func() float64 { return 1 },
	})
	s.Start()
	defer s.Close()
	if s.cfg.Period != 10*time.Second {
		t.Fatalf("period = %v", s.cfg.Period)
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.Cycles() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Cycles() < 1 {
		t.Fatal("sensor completed no measurement")
	}
}

func TestCPUProbeReturnsPositive(t *testing.T) {
	if v := CPUProbe(); v <= 0 {
		t.Fatalf("probe = %v", v)
	}
}
