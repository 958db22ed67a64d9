// Package legion implements the Legion-style substrate from section 5.3
// of the paper: an object-based invocation model bridged to the EveryWare
// lingua franca through a translator object.
//
// At SC98 the team implemented the Legion versions of the scheduling and
// persistent state services as a single passive object and built a
// message translator whose role was "to invoke an appropriate Legion
// method based on message receipt" — in effect an event model for the
// Legion application components. Using a single translator (rather than
// loading every object with the lingua franca library) "greatly aided the
// debugging process" by providing one monitoring point for all messages
// headed to and from Legion components; this package preserves that
// property with per-method invocation counters.
package legion

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// Lingua franca message types for the Legion substrate (range 80-89).
const (
	// MsgInvoke invokes object.method(args) through the translator.
	MsgInvoke wire.MsgType = 80
)

// An invocation runs an arbitrary object method, so it is not idempotent.
func init() {
	wire.Define(MsgInvoke, "legion.invoke", false)
	wire.Reserve(81, "legion.stats")
}

// Method is one invocable object method. Args and results are opaque
// byte strings; encoding is method-specific (typically the lingua franca
// codec).
type Method func(args [][]byte) ([][]byte, error)

// Object is a named collection of methods.
type Object struct {
	name    string
	methods map[string]Method
}

// NewObject creates an empty object.
func NewObject(name string) *Object {
	return &Object{name: name, methods: make(map[string]Method)}
}

// Define installs a method, replacing any previous definition.
func (o *Object) Define(method string, fn Method) *Object {
	o.methods[method] = fn
	return o
}

// Methods returns the defined method names, sorted.
func (o *Object) Methods() []string {
	out := make([]string, 0, len(o.methods))
	for m := range o.methods {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// InvokeStat is one (object, method) invocation counter.
type InvokeStat struct {
	Object string
	Method string
	Calls  int64
	Errors int64
}

// Translator bridges lingua franca messages to object method invocations
// and monitors all traffic crossing the bridge.
type Translator struct {
	svc *wire.Service

	mu      sync.Mutex
	objects map[string]*Object
	stats   map[[2]string]*InvokeStat
}

// NewTranslator constructs a translator on TCP; call Start to serve.
func NewTranslator() *Translator { return NewTranslatorOn(nil) }

// NewTranslatorOn constructs a translator on the given wire transport
// (nil means TCP).
func NewTranslatorOn(tr wire.Transport) *Translator {
	t := &Translator{
		svc:     wire.NewService(wire.ServiceConfig{Name: "legion", Transport: tr, Silent: true}),
		objects: make(map[string]*Object),
		stats:   make(map[[2]string]*InvokeStat),
	}
	t.svc.Handle(MsgInvoke, wire.HandlerFunc(t.handleInvoke))
	return t
}

// Start binds the listener and returns the bound address.
func (t *Translator) Start(addr string) (string, error) { return t.svc.StartAt(addr) }

// Addr returns the bound address.
func (t *Translator) Addr() string { return t.svc.Addr() }

// Close stops the daemon.
func (t *Translator) Close() { t.svc.Close() }

// Register installs an object.
func (t *Translator) Register(o *Object) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.objects[o.name]; dup {
		return fmt.Errorf("legion: object %q already registered", o.name)
	}
	t.objects[o.name] = o
	return nil
}

// Invoke dispatches object.method(args) in-process.
func (t *Translator) Invoke(object, method string, args [][]byte) ([][]byte, error) {
	t.mu.Lock()
	o := t.objects[object]
	key := [2]string{object, method}
	st := t.stats[key]
	if st == nil {
		st = &InvokeStat{Object: object, Method: method}
		t.stats[key] = st
	}
	st.Calls++
	var fn Method
	if o != nil {
		fn = o.methods[method]
	}
	t.mu.Unlock()
	if o == nil {
		t.countError(key)
		return nil, fmt.Errorf("legion: no object %q", object)
	}
	if fn == nil {
		t.countError(key)
		return nil, fmt.Errorf("legion: object %q has no method %q", object, method)
	}
	out, err := fn(args)
	if err != nil {
		t.countError(key)
	}
	return out, err
}

func (t *Translator) countError(key [2]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[key]; st != nil {
		st.Errors++
	}
}

// Stats returns invocation counters sorted by object then method.
func (t *Translator) Stats() []InvokeStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]InvokeStat, 0, len(t.stats))
	for _, st := range t.stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Method < out[j].Method
	})
	return out
}

func (t *Translator) handleInvoke(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	object, err := d.String()
	if err != nil {
		return nil, err
	}
	method, err := d.String()
	if err != nil {
		return nil, err
	}
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	args := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		// Bytes copies out of the pooled request, so args outlive it.
		a, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	results, err := t.Invoke(object, method, args)
	if err != nil {
		return nil, err
	}
	return wire.Reply(MsgInvoke, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(len(results)))
		for _, r := range results {
			e.PutBytes(r)
		}
	})), nil
}

// Client invokes methods through a remote translator.
type Client struct {
	wc      *wire.Client
	addr    string
	timeout time.Duration
}

// NewClient returns a Client for the translator at addr.
func NewClient(wc *wire.Client, addr string, timeout time.Duration) *Client {
	return &Client{wc: wc, addr: addr, timeout: timeout}
}

// Invoke calls object.method(args) remotely.
func (c *Client) Invoke(object, method string, args ...[]byte) ([][]byte, error) {
	req := wire.NewRequest(MsgInvoke, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutString(object)
		e.PutString(method)
		e.PutUint32(uint32(len(args)))
		for _, a := range args {
			e.PutBytes(a)
		}
	}))
	resp, err := c.wc.Call(c.addr, req, c.timeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		// Bytes copies out of the pooled reply, so results outlive it.
		r, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ServicesObjectName is the name of the combined scheduler + persistent
// state object, mirroring SC98's single passive Legion service object.
const ServicesObjectName = "everyware-services"

// NewServicesObject exposes a scheduling server and a persistent state
// manager as one passive Legion object:
//
//	report(encodedReport) -> encodedDirective
//	store(name, class, data) -> version
//	fetch(name) -> found, data
func NewServicesObject(sv *sched.Server, ps *pstate.Server) *Object {
	o := NewObject(ServicesObjectName)
	o.Define("report", func(args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("legion: report takes 1 arg")
		}
		r, err := sched.DecodeReport(args[0])
		if err != nil {
			return nil, err
		}
		dr := sv.Handle(r)
		return [][]byte{sched.EncodeDirective(dr)}, nil
	})
	o.Define("store", func(args [][]byte) ([][]byte, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("legion: store takes 3 args")
		}
		ver, err := ps.Store(string(args[0]), string(args[1]), args[2])
		if err != nil {
			return nil, err
		}
		var e wire.Encoder
		e.PutUint64(ver)
		return [][]byte{e.Bytes()}, nil
	})
	o.Define("fetch", func(args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("legion: fetch takes 1 arg")
		}
		obj := ps.Fetch(string(args[0]))
		if obj == nil {
			return [][]byte{nil}, nil
		}
		return [][]byte{obj.Data}, nil
	})
	return o
}
