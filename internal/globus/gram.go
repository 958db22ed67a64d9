package globus

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"everyware/internal/wire"
)

// JobStatus is a GRAM job's lifecycle state.
type JobStatus uint8

// Job lifecycle states.
const (
	JobPending JobStatus = iota + 1
	JobActive
	JobDone
	JobFailed
	JobCancelled
)

// String renders a status.
func (s JobStatus) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobActive:
		return "active"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// JobRequest is a GRAM submission: who, what to stage, and how to run it.
// BinaryPath may contain the $(ARCH) variable, which the gatekeeper
// substitutes with its platform before staging — the paper's
// platform-independent access to the GASS repository.
type JobRequest struct {
	User       string
	Credential string
	BinaryPath string
	GASSAddr   string
	Args       []string
}

// Job is a gatekeeper-side job record.
type Job struct {
	ID     uint64
	Req    JobRequest
	Status JobStatus
	// Binary is the staged image (from GASS).
	Binary []byte
	// Err holds the failure reason for JobFailed.
	Err string
}

// Process is a running job's handle, returned by the gatekeeper's
// Launcher. Stop must be idempotent.
type Process interface {
	Stop()
}

// Launcher turns a staged job into a running process. The default
// launcher runs a no-op process (the client binary is simulated); the
// ew-switch demo installs a launcher that starts real in-process EveryWare
// clients.
type Launcher func(job *Job) (Process, error)

// GatekeeperConfig parameterizes a GRAM gatekeeper.
type GatekeeperConfig struct {
	// Name is the resource name registered with the MDS.
	Name string
	// Arch is the platform label substituted for $(ARCH).
	Arch string
	// Nodes is the resource's capacity; submissions beyond it are
	// rejected.
	Nodes int
	// Credential is the shared secret submissions must present — the
	// paper's "certificates of authenticity" reduced to a token.
	Credential string
	// Launch runs staged jobs (default: inert process).
	Launch Launcher
	// Transport selects the wire substrate (nil = TCP).
	Transport wire.Transport
}

// stageTimeout bounds a gatekeeper's GASS fetches.
const stageTimeout = 5 * time.Second

// Gatekeeper is a GRAM process-creation endpoint.
type Gatekeeper struct {
	cfg GatekeeperConfig
	svc *wire.Service
	wc  *wire.Client

	mu     sync.Mutex
	jobs   map[uint64]*Job
	procs  map[uint64]Process
	nextID uint64
}

// NewGatekeeper constructs a gatekeeper; call Start to serve.
func NewGatekeeper(cfg GatekeeperConfig) *Gatekeeper {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Launch == nil {
		cfg.Launch = func(*Job) (Process, error) { return inertProcess{}, nil }
	}
	svc := wire.NewService(wire.ServiceConfig{
		Name:      "gram",
		Transport: cfg.Transport,
		Silent:    true,
	})
	g := &Gatekeeper{
		cfg:   cfg,
		svc:   svc,
		wc:    svc.Client(),
		jobs:  make(map[uint64]*Job),
		procs: make(map[uint64]Process),
	}
	svc.Handle(MsgGRAMAuth, wire.HandlerFunc(g.handleAuth))
	svc.Handle(MsgGRAMSubmit, wire.HandlerFunc(g.handleSubmit))
	svc.Handle(MsgGRAMCancel, wire.HandlerFunc(g.handleCancel))
	return g
}

type inertProcess struct{}

func (inertProcess) Stop() {}

// Start binds the listener and returns the bound address.
func (g *Gatekeeper) Start(addr string) (string, error) { return g.svc.StartAt(addr) }

// Addr returns the bound address.
func (g *Gatekeeper) Addr() string { return g.svc.Addr() }

// Close cancels all jobs and stops the daemon.
func (g *Gatekeeper) Close() {
	g.mu.Lock()
	for id, p := range g.procs {
		p.Stop()
		delete(g.procs, id)
		if j := g.jobs[id]; j != nil && j.Status == JobActive {
			j.Status = JobCancelled
		}
	}
	g.mu.Unlock()
	g.svc.Close()
}

// Record returns the MDS record advertising this gatekeeper.
func (g *Gatekeeper) Record() Record {
	g.mu.Lock()
	active := 0
	for _, j := range g.jobs {
		if j.Status == JobActive || j.Status == JobPending {
			active++
		}
	}
	g.mu.Unlock()
	return Record{
		Name:       g.cfg.Name,
		Arch:       g.cfg.Arch,
		Gatekeeper: g.Addr(),
		FreeNodes:  g.cfg.Nodes - active,
	}
}

// authenticate validates a credential.
func (g *Gatekeeper) authenticate(cred string) bool {
	return g.cfg.Credential == "" || cred == g.cfg.Credential
}

// Submit stages and launches a job (in-process use).
func (g *Gatekeeper) Submit(req JobRequest) (*Job, error) {
	if !g.authenticate(req.Credential) {
		return nil, fmt.Errorf("globus: gatekeeper %s: authentication failed for %q", g.cfg.Name, req.User)
	}
	g.mu.Lock()
	active := 0
	for _, j := range g.jobs {
		if j.Status == JobActive || j.Status == JobPending {
			active++
		}
	}
	if active >= g.cfg.Nodes {
		g.mu.Unlock()
		return nil, fmt.Errorf("globus: gatekeeper %s: no free nodes", g.cfg.Name)
	}
	g.nextID++
	job := &Job{ID: g.nextID, Req: req, Status: JobPending}
	g.jobs[job.ID] = job
	g.mu.Unlock()

	// Stage the binary through GASS, substituting platform variables —
	// the "grappling hook" that loads the right image automatically.
	path := strings.ReplaceAll(req.BinaryPath, "$(ARCH)", g.cfg.Arch)
	gass := NewGASSClient(g.wc, req.GASSAddr, stageTimeout)
	bin, found, err := gass.Get(path)
	if err != nil || !found {
		g.mu.Lock()
		job.Status = JobFailed
		job.Err = fmt.Sprintf("staging %q failed (found=%v err=%v)", path, found, err)
		g.mu.Unlock()
		return job, fmt.Errorf("globus: %s", job.Err)
	}
	job.Binary = bin
	proc, err := g.cfg.Launch(job)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		job.Status = JobFailed
		job.Err = err.Error()
		return job, err
	}
	job.Status = JobActive
	g.procs[job.ID] = proc
	return job, nil
}

// Cancel stops a job.
func (g *Gatekeeper) Cancel(id uint64) error {
	g.mu.Lock()
	job, ok := g.jobs[id]
	proc := g.procs[id]
	delete(g.procs, id)
	if ok && (job.Status == JobActive || job.Status == JobPending) {
		job.Status = JobCancelled
	}
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("globus: no job %d", id)
	}
	if proc != nil {
		proc.Stop()
	}
	return nil
}

// Job returns a job record copy.
func (g *Gatekeeper) Job(id uint64) (Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

func (g *Gatekeeper) handleAuth(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	cred, err := d.String()
	if err != nil {
		return nil, err
	}
	rec := g.Record()
	return wire.Reply(MsgGRAMAuth, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutBool(g.authenticate(cred))
		e.PutString(g.cfg.Arch)
		e.PutUint32(uint32(rec.FreeNodes))
	})), nil
}

func (g *Gatekeeper) handleSubmit(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	var jr JobRequest
	var err error
	if jr.User, err = d.String(); err != nil {
		return nil, err
	}
	if jr.Credential, err = d.String(); err != nil {
		return nil, err
	}
	if jr.BinaryPath, err = d.String(); err != nil {
		return nil, err
	}
	if jr.GASSAddr, err = d.String(); err != nil {
		return nil, err
	}
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		a, err := d.String()
		if err != nil {
			return nil, err
		}
		jr.Args = append(jr.Args, a)
	}
	job, err := g.Submit(jr)
	if err != nil {
		return nil, err
	}
	return wire.Reply(MsgGRAMSubmit, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint64(job.ID)
		e.PutUint8(uint8(job.Status))
	})), nil
}

func (g *Gatekeeper) handleCancel(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	id, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	if err := g.Cancel(id); err != nil {
		return nil, err
	}
	return wire.Reply(MsgGRAMCancel, nil), nil
}

// GRAMClient provides typed access to a remote gatekeeper.
type GRAMClient struct {
	wc      *wire.Client
	addr    string
	timeout time.Duration
}

// NewGRAMClient returns a client for the gatekeeper at addr.
func NewGRAMClient(wc *wire.Client, addr string, timeout time.Duration) *GRAMClient {
	return &GRAMClient{wc: wc, addr: addr, timeout: timeout}
}

// Authenticate performs the lightweight authenticate-only operation: is
// the user authorized, and what platform / capacity does the resource
// offer?
func (c *GRAMClient) Authenticate(cred string) (ok bool, arch string, freeNodes int, err error) {
	req := wire.NewRequest(MsgGRAMAuth, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutString(cred)
	}))
	resp, err := c.wc.Call(c.addr, req, c.timeout)
	if err != nil {
		return false, "", 0, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	if ok, err = d.Bool(); err != nil {
		return false, "", 0, err
	}
	if arch, err = d.String(); err != nil {
		return false, "", 0, err
	}
	n, err := d.Uint32()
	return ok, arch, int(n), err
}

// Submit submits a job and returns its ID and initial status.
func (c *GRAMClient) Submit(jr JobRequest) (uint64, JobStatus, error) {
	var e wire.Encoder
	e.PutString(jr.User)
	e.PutString(jr.Credential)
	e.PutString(jr.BinaryPath)
	e.PutString(jr.GASSAddr)
	e.PutUint32(uint32(len(jr.Args)))
	for _, a := range jr.Args {
		e.PutString(a)
	}
	resp, err := c.wc.Call(c.addr, wire.NewRequest(MsgGRAMSubmit, wire.RawMessage(e.Bytes())), c.timeout)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	id, err := d.Uint64()
	if err != nil {
		return 0, 0, err
	}
	st, err := d.Uint8()
	return id, JobStatus(st), err
}

// Cancel kills a job.
func (c *GRAMClient) Cancel(id uint64) error {
	msg := wire.MessageFunc(func(e *wire.Encoder) { e.PutUint64(id) })
	return c.wc.CallMsg(c.addr, MsgGRAMCancel, msg, nil, c.timeout)
}
