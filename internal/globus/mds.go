// Package globus implements the Globus-style substrate the SC98
// application used (section 5.2 and Figure 5 of the paper): the GRAM
// gatekeeper for remote process creation and control, the GASS storage
// server acting as a repository of pre-compiled client binaries, and the
// MDS directory service for crude-but-effective resource discovery. On
// top of the three sits the "light switch" — a single point of control
// for activating and deactivating the Globus-enabled application
// components.
//
// The paper used the real Globus toolkit; this package reproduces the
// same service contracts over the lingua franca so the light-switch
// workflow (MDS query -> authenticate-only probe -> GASS binary staging
// -> GRAM launch) runs end to end on any machine.
package globus

import (
	"sort"
	"sync"
	"time"

	"everyware/internal/wire"
)

// Lingua franca message types for the Globus substrate (range 60-79).
const (
	// MsgMDSRegister upserts a resource record.
	MsgMDSRegister wire.MsgType = 60
	// MsgMDSQuery returns records matching an architecture filter ("" =
	// all).
	MsgMDSQuery wire.MsgType = 61
	// MsgGASSPut stores a file in the repository.
	MsgGASSPut wire.MsgType = 62
	// MsgGASSGet fetches a file.
	MsgGASSGet wire.MsgType = 63
	// MsgGRAMAuth is the lightweight authenticate-only operation.
	MsgGRAMAuth wire.MsgType = 65
	// MsgGRAMSubmit submits a job to a gatekeeper.
	MsgGRAMSubmit wire.MsgType = 66
	// MsgGRAMCancel kills a job.
	MsgGRAMCancel wire.MsgType = 68
)

// A resent submit would launch a second job. The others are reads and
// keyed writes that would survive a resend, but the light switch runs no
// retry policy, so none is marked.
func init() {
	wire.Define(MsgMDSRegister, "globus.mds_register", false)
	wire.Define(MsgMDSQuery, "globus.mds_query", false)
	wire.Define(MsgGASSPut, "globus.gass_put", false)
	wire.Define(MsgGASSGet, "globus.gass_get", false)
	wire.Reserve(64, "globus.gass_list")
	wire.Define(MsgGRAMAuth, "globus.gram_auth", false)
	wire.Define(MsgGRAMSubmit, "globus.gram_submit", false)
	wire.Reserve(67, "globus.gram_status")
	wire.Define(MsgGRAMCancel, "globus.gram_cancel", false)
	wire.Reserve(69, "globus.gram_list")
}

// Record is one MDS resource entry: where a gatekeeper runs, how to
// contact it, and how many nodes are free on the resource it manages —
// the metadata the application used for resource discovery.
type Record struct {
	// Name identifies the resource ("ncsa-nt-cluster").
	Name string
	// Arch is the execution platform ("x86-nt", "sparc-solaris", ...);
	// the light switch uses it to select the right binary image.
	Arch string
	// Gatekeeper is the GRAM contact address.
	Gatekeeper string
	// FreeNodes is the resource's advertised free capacity.
	FreeNodes int
	// UpdatedUnix is the registration time (nanoseconds).
	UpdatedUnix int64
}

func encodeRecord(e *wire.Encoder, r Record) {
	e.PutString(r.Name)
	e.PutString(r.Arch)
	e.PutString(r.Gatekeeper)
	e.PutUint32(uint32(r.FreeNodes))
	e.PutInt64(r.UpdatedUnix)
}

func decodeRecord(d *wire.Decoder) (Record, error) {
	var r Record
	var err error
	if r.Name, err = d.String(); err != nil {
		return r, err
	}
	if r.Arch, err = d.String(); err != nil {
		return r, err
	}
	if r.Gatekeeper, err = d.String(); err != nil {
		return r, err
	}
	n, err := d.Uint32()
	if err != nil {
		return r, err
	}
	r.FreeNodes = int(n)
	r.UpdatedUnix, err = d.Int64()
	return r, err
}

// MDS is the metacomputing directory service daemon.
type MDS struct {
	svc *wire.Service

	mu      sync.Mutex
	records map[string]Record
	// TTL expires stale records on query (default 10 minutes), measured
	// on the clock of the service's metrics registry.
	TTL time.Duration
}

// NewMDS constructs an MDS daemon on TCP; call Start to serve.
func NewMDS() *MDS { return NewMDSOn(nil) }

// NewMDSOn constructs an MDS daemon on the given wire transport (nil
// means TCP).
func NewMDSOn(tr wire.Transport) *MDS {
	m := &MDS{
		svc:     wire.NewService(wire.ServiceConfig{Name: "mds", Transport: tr, Silent: true}),
		records: make(map[string]Record),
		TTL:     10 * time.Minute,
	}
	m.svc.Handle(MsgMDSRegister, wire.HandlerFunc(m.handleRegister))
	m.svc.Handle(MsgMDSQuery, wire.HandlerFunc(m.handleQuery))
	return m
}

// Start binds the listener and returns the bound address.
func (m *MDS) Start(addr string) (string, error) { return m.svc.StartAt(addr) }

// Addr returns the bound address.
func (m *MDS) Addr() string { return m.svc.Addr() }

// Close stops the daemon.
func (m *MDS) Close() { m.svc.Close() }

// Register upserts a record directly (in-process use).
func (m *MDS) Register(r Record) {
	if r.UpdatedUnix == 0 {
		r.UpdatedUnix = m.svc.Metrics().Now().UnixNano()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records[r.Name] = r
}

// Query returns live records matching arch ("" matches all), sorted by
// name.
func (m *MDS) Query(arch string) []Record {
	cutoff := m.svc.Metrics().Now().Add(-m.TTL).UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.records))
	for name, r := range m.records {
		if r.UpdatedUnix < cutoff {
			delete(m.records, name)
			continue
		}
		if arch != "" && r.Arch != arch {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *MDS) handleRegister(_ string, req *wire.Packet) (*wire.Packet, error) {
	r, err := decodeRecord(wire.NewDecoder(req.Payload))
	if err != nil {
		return nil, err
	}
	m.Register(r)
	return wire.Reply(MsgMDSRegister, nil), nil
}

func (m *MDS) handleQuery(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	arch, err := d.String()
	if err != nil {
		return nil, err
	}
	recs := m.Query(arch)
	return wire.Reply(MsgMDSQuery, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(len(recs)))
		for _, r := range recs {
			encodeRecord(e, r)
		}
	})), nil
}

// MDSClient provides typed access to a remote MDS.
type MDSClient struct {
	wc      *wire.Client
	addr    string
	timeout time.Duration
}

// NewMDSClient returns a client for the MDS at addr.
func NewMDSClient(wc *wire.Client, addr string, timeout time.Duration) *MDSClient {
	return &MDSClient{wc: wc, addr: addr, timeout: timeout}
}

// Register upserts a record.
func (c *MDSClient) Register(r Record) error {
	msg := wire.MessageFunc(func(e *wire.Encoder) { encodeRecord(e, r) })
	return c.wc.CallMsg(c.addr, MsgMDSRegister, msg, nil, c.timeout)
}

// Query returns live records matching arch ("" = all).
func (c *MDSClient) Query(arch string) ([]Record, error) {
	req := wire.NewRequest(MsgMDSQuery, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutString(arch)
	}))
	resp, err := c.wc.Call(c.addr, req, c.timeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	n, err := d.Count(16)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r, err := decodeRecord(d)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
