// Package applet implements the Java-applet path of section 5.6: a
// lightweight version of the application that let any user connected to
// the Internet contribute processor cycles by pointing a browser at a
// page — no execution environment to download, no toolkit to port.
//
// The applet speaks a deliberately tiny protocol to a Gateway: fetch a
// work parcel, compute, return the result. The Gateway carries the full
// EveryWare machinery on the applets' behalf — it translates parcels
// to/from scheduler reports, so every browser session appears to the
// scheduling servers as an ordinary (slow) client under the "java"
// infrastructure.
package applet

import (
	"fmt"
	"sync"
	"time"

	"everyware/internal/ramsey"
	"everyware/internal/sched"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Lingua franca message types for the applet gateway (range 100-109).
const (
	// MsgFetchParcel requests a work parcel (payload: applet ID, jit).
	MsgFetchParcel wire.MsgType = 100
	// MsgReturnParcel returns a computed parcel (payload: ParcelResult).
	MsgReturnParcel wire.MsgType = 101
)

// Neither is idempotent: a resent fetch draws a second parcel from the
// scheduler, and a resent return is refused as an unknown parcel.
func init() {
	wire.Define(MsgFetchParcel, "applet.fetch_parcel", false)
	wire.Define(MsgReturnParcel, "applet.return_parcel", false)
	wire.Reserve(102, "applet.gateway_stats")
}

// Parcel is one unit of applet work: a bounded slice of heuristic search.
type Parcel struct {
	ID    uint64
	N, K  int
	Heur  string
	Seed  int64
	Steps int64
	State []byte
}

// EncodeWire implements wire.Message: the parcel encodes in place into a
// pooled reply buffer, reserving its full size once.
func (p Parcel) EncodeWire(e *wire.Encoder) {
	e.Grow(8 + 4 + 4 + 4 + len(p.Heur) + 8 + 8 + 4 + len(p.State))
	e.PutUint64(p.ID)
	e.PutUint32(uint32(p.N))
	e.PutUint32(uint32(p.K))
	e.PutString(p.Heur)
	e.PutInt64(p.Seed)
	e.PutInt64(p.Steps)
	e.PutBytes(p.State)
}

// EncodeParcel serializes a parcel.
func EncodeParcel(p Parcel) []byte {
	var e wire.Encoder
	p.EncodeWire(&e)
	return e.Bytes()
}

// DecodeParcel parses a parcel.
func DecodeParcel(b []byte) (Parcel, error) {
	d := wire.NewDecoder(b)
	var p Parcel
	var err error
	if p.ID, err = d.Uint64(); err != nil {
		return p, err
	}
	n, err := d.Uint32()
	if err != nil {
		return p, err
	}
	p.N = int(n)
	k, err := d.Uint32()
	if err != nil {
		return p, err
	}
	p.K = int(k)
	if p.Heur, err = d.String(); err != nil {
		return p, err
	}
	if p.Seed, err = d.Int64(); err != nil {
		return p, err
	}
	if p.Steps, err = d.Int64(); err != nil {
		return p, err
	}
	// Bytes copies out of the packet buffer already; keep nil for empty.
	st, err := d.Bytes()
	if err != nil {
		return p, err
	}
	if len(st) > 0 {
		p.State = st
	}
	return p, nil
}

// ParcelResult is a computed parcel.
type ParcelResult struct {
	AppletID   string
	ParcelID   uint64
	Ops        int64
	ElapsedSec float64
	Conflicts  int
	Found      bool
	State      []byte
}

// EncodeWire implements wire.Message: the result encodes in place into a
// pooled request buffer, reserving its full size once.
func (r ParcelResult) EncodeWire(e *wire.Encoder) {
	e.Grow(4 + len(r.AppletID) + 8 + 8 + 8 + 4 + 1 + 4 + len(r.State))
	e.PutString(r.AppletID)
	e.PutUint64(r.ParcelID)
	e.PutInt64(r.Ops)
	e.PutFloat64(r.ElapsedSec)
	e.PutUint32(uint32(r.Conflicts))
	e.PutBool(r.Found)
	e.PutBytes(r.State)
}

// EncodeParcelResult serializes a result.
func EncodeParcelResult(r ParcelResult) []byte {
	var e wire.Encoder
	r.EncodeWire(&e)
	return e.Bytes()
}

// DecodeParcelResult parses a result.
func DecodeParcelResult(b []byte) (ParcelResult, error) {
	d := wire.NewDecoder(b)
	var r ParcelResult
	var err error
	if r.AppletID, err = d.String(); err != nil {
		return r, err
	}
	if r.ParcelID, err = d.Uint64(); err != nil {
		return r, err
	}
	if r.Ops, err = d.Int64(); err != nil {
		return r, err
	}
	if r.ElapsedSec, err = d.Float64(); err != nil {
		return r, err
	}
	c, err := d.Uint32()
	if err != nil {
		return r, err
	}
	r.Conflicts = int(c)
	if r.Found, err = d.Bool(); err != nil {
		return r, err
	}
	// Bytes copies out of the packet buffer already; keep nil for empty.
	st, err := d.Bytes()
	if err != nil {
		return r, err
	}
	if len(st) > 0 {
		r.State = st
	}
	return r, nil
}

// GatewayConfig parameterizes an applet gateway.
type GatewayConfig struct {
	// ListenAddr is the bind address.
	ListenAddr string
	// Schedulers are the scheduling servers the gateway reports to on the
	// applets' behalf.
	Schedulers []string
	// Transport selects the wire substrate (nil = TCP).
	Transport wire.Transport
}

// callTimeout bounds a gateway's scheduler calls.
const callTimeout = 2 * time.Second

// Gateway bridges browser applets to the EveryWare scheduling service.
type Gateway struct {
	cfg     GatewayConfig
	svc     *wire.Service
	wc      *wire.Client
	metrics *telemetry.Registry

	mu       sync.Mutex
	assigned map[string]sched.WorkUnit // per applet
	parcels  int64
	returns  int64
	founds   int64
}

// NewGateway constructs a gateway; call Start to serve.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("applet: gateway needs at least one scheduler")
	}
	svc := wire.NewService(wire.ServiceConfig{
		Name:        "applet-gw",
		ListenAddr:  cfg.ListenAddr,
		Transport:   cfg.Transport,
		DialTimeout: callTimeout,
		Silent:      true,
	})
	g := &Gateway{
		cfg:      cfg,
		svc:      svc,
		wc:       svc.Client(),
		metrics:  svc.Metrics(),
		assigned: make(map[string]sched.WorkUnit),
	}
	// ew top's region column keys off this gauge's presence; every
	// gateway serves region 0.
	g.metrics.Gauge("scale.region").Set(0)
	svc.Handle(MsgFetchParcel, wire.HandlerFunc(g.handleFetch))
	svc.Handle(MsgReturnParcel, wire.HandlerFunc(g.handleReturn))
	return g, nil
}

// Start binds the listener and returns the bound address.
func (g *Gateway) Start() (string, error) { return g.svc.Start() }

// Addr returns the bound address.
func (g *Gateway) Addr() string { return g.svc.Addr() }

// Close stops the gateway.
func (g *Gateway) Close() { g.svc.Close() }

// Stats returns (parcels handed out, results returned, counter-examples).
func (g *Gateway) Stats() (parcels, returns, founds int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parcels, g.returns, g.founds
}

// reportToScheduler forwards a report and returns the directive, failing
// over along the scheduler list.
func (g *Gateway) reportToScheduler(r sched.Report) (sched.Directive, error) {
	var lastErr error
	for _, addr := range g.cfg.Schedulers {
		// Call takes ownership of the request, so each fail-over attempt
		// encodes afresh into a pooled buffer.
		resp, err := g.wc.Call(addr, wire.NewRequest(sched.MsgReport, r), callTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		var dr sched.Directive
		derr := resp.Decode(&dr)
		resp.Release()
		return dr, derr
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no scheduler configured")
	}
	return sched.Directive{}, fmt.Errorf("applet: no viable scheduler: %w", lastErr)
}

func (g *Gateway) handleFetch(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	appletID, err := d.String()
	if err != nil {
		return nil, err
	}
	clientID := "applet-" + appletID
	// The gateway performs the scheduler handshake on the applet's
	// behalf.
	dr, err := g.reportToScheduler(sched.Report{ClientID: clientID, Infra: "java"})
	if err != nil {
		return nil, err
	}
	if dr.Kind != sched.DirNewWork {
		return nil, fmt.Errorf("applet: scheduler refused work (directive %d)", dr.Kind)
	}
	g.mu.Lock()
	g.assigned[appletID] = dr.Work
	g.parcels++
	g.mu.Unlock()
	p := Parcel{
		ID:    dr.Work.ID,
		N:     dr.Work.N,
		K:     dr.Work.K,
		Heur:  dr.Work.Heuristic,
		Seed:  dr.Work.Seed,
		Steps: dr.Work.Steps,
		State: dr.Work.State,
	}
	return wire.Reply(MsgFetchParcel, p), nil
}

func (g *Gateway) handleReturn(_ string, req *wire.Packet) (*wire.Packet, error) {
	r, err := DecodeParcelResult(req.Payload)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	w, ok := g.assigned[r.AppletID]
	if ok && w.ID == r.ParcelID {
		delete(g.assigned, r.AppletID)
	}
	g.returns++
	if r.Found {
		g.founds++
	}
	g.mu.Unlock()
	if !ok || w.ID != r.ParcelID {
		return nil, fmt.Errorf("applet: unknown parcel %d for applet %q", r.ParcelID, r.AppletID)
	}
	rep := sched.Report{
		ClientID:   "applet-" + r.AppletID,
		Infra:      "java",
		WorkID:     r.ParcelID,
		Ops:        r.Ops,
		ElapsedSec: r.ElapsedSec,
		Conflicts:  r.Conflicts,
		Found:      r.Found,
		State:      r.State,
	}
	if _, err = g.reportToScheduler(rep); err != nil {
		return nil, err
	}
	return wire.Reply(MsgReturnParcel, nil), nil
}

// Applet is one browser session: it fetches parcels from a gateway,
// computes them with the lightweight heuristics, and returns results
// until the visitor leaves.
type Applet struct {
	ID      string
	Gateway string
	// Timeout bounds each gateway call (default 5s; browsers on far
	// networks were slow).
	Timeout time.Duration

	wc  *wire.Client
	ops ramsey.OpCounter
}

// NewApplet constructs a session.
func NewApplet(id, gateway string) *Applet {
	return &Applet{ID: id, Gateway: gateway, Timeout: 5 * time.Second, wc: wire.NewClient(2 * time.Second)}
}

// Close releases the session's connections.
func (a *Applet) Close() { a.wc.Close() }

// Ops returns the useful work counter.
func (a *Applet) Ops() int64 { return a.ops.Total() }

// RunParcels fetches, computes, and returns n parcels. It returns the
// number of counter-examples found.
func (a *Applet) RunParcels(n int) (found int, err error) {
	for i := 0; i < n; i++ {
		req := wire.NewRequest(MsgFetchParcel, wire.MessageFunc(func(e *wire.Encoder) {
			e.PutString(a.ID)
		}))
		resp, err := a.wc.Call(a.Gateway, req, a.Timeout)
		if err != nil {
			return found, err
		}
		p, err := DecodeParcel(resp.Payload)
		resp.Release()
		if err != nil {
			return found, err
		}
		start := time.Now()
		s, err := ramsey.NewSearcher(ramsey.SearchConfig{
			N: p.N, K: p.K, Heuristic: ramsey.Heuristic(p.Heur), Seed: p.Seed,
		}, &a.ops)
		if err != nil {
			return found, err
		}
		if len(p.State) > 0 {
			if col, derr := ramsey.DecodeColoring(p.State); derr == nil {
				_ = s.Restore(col)
			}
		}
		opsBefore := a.ops.Total()
		ok := s.Run(p.Steps)
		var state []byte
		if ok {
			best, _ := s.Best()
			state = best.Encode()
			found++
		} else {
			state = s.State()
		}
		res := ParcelResult{
			AppletID:   a.ID,
			ParcelID:   p.ID,
			Ops:        a.ops.Total() - opsBefore,
			ElapsedSec: time.Since(start).Seconds(),
			Conflicts:  s.Conflicts(),
			Found:      ok,
			State:      state,
		}
		if err := a.wc.CallMsg(a.Gateway, MsgReturnParcel, res, nil, a.Timeout); err != nil {
			return found, err
		}
	}
	return found, nil
}
