package obs

import (
	"fmt"
	"sort"
	"time"

	"everyware/internal/wire"
)

// Observatory introspection message types, in the 110-119 introspection
// range next to MsgTelemetry. Both are read-only and safe to retry.
const (
	// MsgObsAlerts returns the observatory's alert table (no request
	// payload).
	MsgObsAlerts wire.MsgType = 111
	// MsgObsQuery returns stored series matching a QueryRequest.
	MsgObsQuery wire.MsgType = 112
)

func init() {
	wire.Define(MsgObsAlerts, "obs.alerts", true)
	wire.Define(MsgObsQuery, "obs.query", true)
}

const alertsVersion = 1

// EncodeAlerts serializes an alert table for MsgObsAlerts and for
// pstate persistence.
func EncodeAlerts(alerts []Alert) []byte {
	e := wire.NewEncoder(16 + 64*len(alerts))
	e.PutUint8(alertsVersion)
	e.PutUint32(uint32(len(alerts)))
	for _, a := range alerts {
		e.PutString(a.Rule)
		e.PutString(a.Daemon)
		e.PutString(a.Role)
		e.PutUint8(uint8(a.Kind))
		e.PutBool(a.Firing)
		e.PutFloat64(a.Value)
		e.PutFloat64(a.Threshold)
		e.PutInt64(a.Fires)
		e.PutInt64(a.FiredUnixNanos)
		e.PutInt64(a.ClearedUnixNanos)
	}
	return e.Bytes()
}

// DecodeAlerts is the inverse of EncodeAlerts.
func DecodeAlerts(buf []byte) ([]Alert, error) {
	d := wire.NewDecoder(buf)
	ver, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	if ver != alertsVersion {
		return nil, fmt.Errorf("unsupported obs alerts version %d", ver)
	}
	n, err := d.Count(45)
	if err != nil {
		return nil, err
	}
	out := make([]Alert, 0, n)
	for i := 0; i < n; i++ {
		var a Alert
		if a.Rule, err = d.String(); err != nil {
			return nil, err
		}
		if a.Daemon, err = d.String(); err != nil {
			return nil, err
		}
		if a.Role, err = d.String(); err != nil {
			return nil, err
		}
		kind, err := d.Uint8()
		if err != nil {
			return nil, err
		}
		a.Kind = RuleKind(kind)
		if a.Firing, err = d.Bool(); err != nil {
			return nil, err
		}
		if a.Value, err = d.Float64(); err != nil {
			return nil, err
		}
		if a.Threshold, err = d.Float64(); err != nil {
			return nil, err
		}
		if a.Fires, err = d.Int64(); err != nil {
			return nil, err
		}
		if a.FiredUnixNanos, err = d.Int64(); err != nil {
			return nil, err
		}
		if a.ClearedUnixNanos, err = d.Int64(); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// sortAlerts orders firing alerts first, then by rule and daemon — the
// order every export and display uses.
func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Firing != alerts[j].Firing {
			return alerts[i].Firing
		}
		if alerts[i].Rule != alerts[j].Rule {
			return alerts[i].Rule < alerts[j].Rule
		}
		return alerts[i].Daemon < alerts[j].Daemon
	})
}

// FetchAlerts pulls the alert table from an observatory daemon.
func FetchAlerts(c *wire.Client, addr string, timeout time.Duration) ([]Alert, error) {
	resp, err := c.Call(addr, wire.NewRequest(MsgObsAlerts, nil), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeAlerts(resp.Payload)
}

// QueryRequest filters the observatory's series store.
type QueryRequest struct {
	// Daemon and Metric are substring filters ("" matches all).
	Daemon string
	Metric string
	// MaxPoints caps points returned per series, newest kept (0 = all).
	MaxPoints uint32
}

// EncodeWire implements wire.Message.
func (q QueryRequest) EncodeWire(e *wire.Encoder) {
	e.PutString(q.Daemon)
	e.PutString(q.Metric)
	e.PutUint32(q.MaxPoints)
}

// DecodeWire implements wire.Decodable.
func (q *QueryRequest) DecodeWire(d *wire.Decoder) error {
	var err error
	if q.Daemon, err = d.String(); err != nil {
		return err
	}
	if q.Metric, err = d.String(); err != nil {
		return err
	}
	q.MaxPoints, err = d.Uint32()
	return err
}

// QuerySeries is one series in a query answer, with the slowest
// exemplar of the backing histogram (if any) so a latency series leads
// straight to a trace ID that ew trace can fetch.
type QuerySeries struct {
	Daemon string
	Metric string
	Points []Point
	// ExemplarTrace/ExemplarNanos identify the slowest recent traced
	// observation behind a histogram-derived series (0 = none).
	ExemplarTrace uint64
	ExemplarNanos int64
}

// EncodeQueryResponse serializes a query answer.
func EncodeQueryResponse(series []QuerySeries) []byte {
	n := 8
	for _, s := range series {
		n += 48 + 16*len(s.Points)
	}
	e := wire.NewEncoder(n)
	e.PutUint32(uint32(len(series)))
	for _, s := range series {
		e.PutString(s.Daemon)
		e.PutString(s.Metric)
		e.PutUint64(s.ExemplarTrace)
		e.PutInt64(s.ExemplarNanos)
		e.PutUint32(uint32(len(s.Points)))
		for _, p := range s.Points {
			e.PutInt64(p.UnixNanos)
			e.PutFloat64(p.Value)
		}
	}
	return e.Bytes()
}

// DecodeQueryResponse is the inverse of EncodeQueryResponse.
func DecodeQueryResponse(buf []byte) ([]QuerySeries, error) {
	d := wire.NewDecoder(buf)
	n, err := d.Count(24)
	if err != nil {
		return nil, err
	}
	out := make([]QuerySeries, 0, n)
	for i := 0; i < n; i++ {
		var s QuerySeries
		if s.Daemon, err = d.String(); err != nil {
			return nil, err
		}
		if s.Metric, err = d.String(); err != nil {
			return nil, err
		}
		if s.ExemplarTrace, err = d.Uint64(); err != nil {
			return nil, err
		}
		if s.ExemplarNanos, err = d.Int64(); err != nil {
			return nil, err
		}
		np, err := d.Count(16)
		if err != nil {
			return nil, err
		}
		s.Points = make([]Point, 0, np)
		for j := 0; j < np; j++ {
			var p Point
			if p.UnixNanos, err = d.Int64(); err != nil {
				return nil, err
			}
			if p.Value, err = d.Float64(); err != nil {
				return nil, err
			}
			s.Points = append(s.Points, p)
		}
		out = append(out, s)
	}
	return out, nil
}

// Query runs a QueryRequest against an observatory daemon.
func Query(c *wire.Client, addr string, q QueryRequest, timeout time.Duration) ([]QuerySeries, error) {
	resp, err := c.Call(addr, wire.NewRequest(MsgObsQuery, q), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeQueryResponse(resp.Payload)
}
