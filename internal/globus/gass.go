package globus

import (
	"fmt"
	"sync"
	"time"

	"everyware/internal/wire"
)

// GASS is the Global Access to Secondary Storage server: a simple file
// server that binds a port and transfers files to or from its store. At
// SC98 a GASS server on a well-known host acted as the repository of
// pre-compiled computational client binary images for the various
// platforms; GRAM job requests referenced repository paths instead of
// gatekeeper-local files.
type GASS struct {
	svc *wire.Service

	mu    sync.Mutex
	files map[string][]byte
	quota int64
	used  int64
}

// NewGASS constructs a GASS server on TCP with the given payload quota
// (0 = unlimited).
func NewGASS(quota int64) *GASS { return NewGASSOn(quota, nil) }

// NewGASSOn constructs a GASS server on the given wire transport (nil
// means TCP).
func NewGASSOn(quota int64, tr wire.Transport) *GASS {
	g := &GASS{
		svc:   wire.NewService(wire.ServiceConfig{Name: "gass", Transport: tr, Silent: true}),
		files: make(map[string][]byte),
		quota: quota,
	}
	g.svc.Handle(MsgGASSPut, wire.HandlerFunc(g.handlePut))
	g.svc.Handle(MsgGASSGet, wire.HandlerFunc(g.handleGet))
	return g
}

// Start binds the listener and returns the bound address.
func (g *GASS) Start(addr string) (string, error) { return g.svc.StartAt(addr) }

// Addr returns the bound address.
func (g *GASS) Addr() string { return g.svc.Addr() }

// Close stops the daemon.
func (g *GASS) Close() { g.svc.Close() }

// Put stores data under path (in-process use).
func (g *GASS) Put(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("globus: empty GASS path")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delta := int64(len(data)) - int64(len(g.files[path]))
	if g.quota > 0 && g.used+delta > g.quota {
		return fmt.Errorf("globus: GASS quota exceeded")
	}
	g.files[path] = append([]byte(nil), data...)
	g.used += delta
	return nil
}

// Get fetches the file at path.
func (g *GASS) Get(path string) ([]byte, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	data, ok := g.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

func (g *GASS) handlePut(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	path, err := d.String()
	if err != nil {
		return nil, err
	}
	data, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := g.Put(path, data); err != nil {
		return nil, err
	}
	return wire.Reply(MsgGASSPut, nil), nil
}

func (g *GASS) handleGet(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	path, err := d.String()
	if err != nil {
		return nil, err
	}
	data, ok := g.Get(path)
	return wire.Reply(MsgGASSGet, wire.MessageFunc(func(e *wire.Encoder) {
		e.Grow(5 + len(data))
		e.PutBool(ok)
		e.PutBytes(data)
	})), nil
}

// GASSClient provides typed access to a remote GASS server.
type GASSClient struct {
	wc      *wire.Client
	addr    string
	timeout time.Duration
}

// NewGASSClient returns a client for the GASS server at addr.
func NewGASSClient(wc *wire.Client, addr string, timeout time.Duration) *GASSClient {
	return &GASSClient{wc: wc, addr: addr, timeout: timeout}
}

// Put stores data under path.
func (c *GASSClient) Put(path string, data []byte) error {
	msg := wire.MessageFunc(func(e *wire.Encoder) {
		e.Grow(8 + len(path) + len(data))
		e.PutString(path)
		e.PutBytes(data)
	})
	return c.wc.CallMsg(c.addr, MsgGASSPut, msg, nil, c.timeout)
}

// Get fetches the file at path; found is false if absent.
func (c *GASSClient) Get(path string) (data []byte, found bool, err error) {
	req := wire.NewRequest(MsgGASSGet, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutString(path)
	}))
	resp, err := c.wc.Call(c.addr, req, c.timeout)
	if err != nil {
		return nil, false, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	found, err = d.Bool()
	if err != nil {
		return nil, false, err
	}
	raw, err := d.Bytes()
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	return append([]byte(nil), raw...), true, nil
}
