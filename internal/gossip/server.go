package gossip

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"everyware/internal/clique"
	"everyware/internal/forecast"
	"everyware/internal/outbox"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ServerConfig parameterizes a Gossip process.
type ServerConfig struct {
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// AdvertiseAddr overrides the advertised address (defaults to the
	// bound address; needed behind NAT or in tests).
	AdvertiseAddr string
	// WellKnown lists Gossip addresses stationed at well-known locations;
	// a new Gossip registers itself with the pool through them.
	WellKnown []string
	// SyncInterval is the period of state synchronization rounds.
	SyncInterval time.Duration
	// MaxFailures is how many consecutive poll failures evict a component
	// registration.
	MaxFailures int
	// Heartbeat is the underlying clique protocol's token period
	// (defaults to SyncInterval).
	Heartbeat time.Duration
	// CallTimeout bounds peer and clique calls (default 2s).
	CallTimeout time.Duration
	// Transport selects the wire substrate for the listener and all
	// outbound calls. Nil means TCP.
	Transport wire.Transport
	// Retry, if set, governs the daemon's outbound retransmission policy.
	// Every Gossip message type is idempotent, so retries are safe.
	Retry *wire.RetryPolicy
	// Logf receives diagnostics (defaults to discard).
	Logf func(format string, args ...any)
	// Metrics, if set, is the daemon's shared telemetry registry (a fresh
	// one is created otherwise); the server, its client, and the clique
	// member all report into it, and MsgTelemetry dumps it.
	Metrics *telemetry.Registry
	// Tracer, if set, roots a causal trace at every synchronization round
	// and at every clique token origination, and continues traces arriving
	// on inbound calls. Nil disables.
	Tracer wire.Tracer
}

func (c *ServerConfig) fill() {
	if c.SyncInterval <= 0 {
		c.SyncInterval = time.Second
	}
	if c.MaxFailures == 0 {
		c.MaxFailures = 3
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.SyncInterval
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// regKey identifies one registration.
type regKey struct {
	addr string
	key  string
}

// Server is one Gossip process: a member of the distributed state exchange
// pool. It polls its responsible components for fresh state, pushes
// updates to stale ones, evicts dead components, and uses
// dynamically-benchmarked response-time forecasts to set its message
// time-outs (the paper's dynamic time-out discovery).
type Server struct {
	cfg    ServerConfig
	svc    *wire.Service
	srv    *wire.Server
	client *wire.Client
	member *clique.Member
	tr     *clique.Endpoint
	addr   string

	timeout *forecast.TimeoutPolicy
	metrics *telemetry.Registry

	mu       sync.Mutex
	regs     map[regKey]Registration
	failures map[regKey]int

	// shares holds the registration shares bound for each pool peer;
	// out ships them (one merged MsgShareReg table per peer).
	shares outbox.Pending[regKey, Registration]
	out    *outbox.Sender

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer constructs a Gossip process; call Start to join the pool.
func NewServer(cfg ServerConfig) *Server {
	cfg.fill()
	svc := wire.NewService(wire.ServiceConfig{
		ListenAddr:  cfg.ListenAddr,
		Transport:   cfg.Transport,
		Metrics:     cfg.Metrics,
		DialTimeout: cfg.CallTimeout,
		Retry:       cfg.Retry,
		Logf:        cfg.Logf,
		Tracer:      cfg.Tracer,
	})
	s := &Server{
		cfg:      cfg,
		svc:      svc,
		srv:      svc.Server(),
		client:   svc.Client(),
		metrics:  svc.Metrics(),
		regs:     make(map[regKey]Registration),
		failures: make(map[regKey]int),
		timeout:  forecast.NewTimeoutPolicy(forecast.NewRegistry()),
		done:     make(chan struct{}),
	}
	svc.Handle(MsgRegister, wire.HandlerFunc(s.handleRegister))
	svc.Handle(MsgShareReg, wire.HandlerFunc(s.handleShareReg))
	return s
}

// Start binds the listener, joins the Gossip pool via the clique protocol,
// and begins synchronization rounds. It returns the advertised address.
func (s *Server) Start() (string, error) {
	bound, err := s.svc.Start()
	if err != nil {
		return "", err
	}
	s.addr = bound
	if s.cfg.AdvertiseAddr != "" {
		s.addr = s.cfg.AdvertiseAddr
	}
	if s.metrics.ID() == "" {
		s.metrics.SetID("gossip@" + s.addr)
	}
	s.tr = clique.NewEndpoint(s.srv, s.addr, s.client, s.cfg.CallTimeout)
	// A member waits four heartbeats for the token, but never less than
	// two call timeouts: a circulation legitimately stalls for a full call
	// timeout when one hop is slow or dead, and a follower that declares
	// partition sooner churns the clique through false splits and merges.
	s.member = clique.New(clique.Config{
		Peers:             s.cfg.WellKnown,
		HeartbeatInterval: s.cfg.Heartbeat,
		TokenTimeout:      max(4*s.cfg.Heartbeat, 2*s.cfg.CallTimeout),
		Metrics:           s.metrics,
		Tracer:            s.cfg.Tracer,
	}, s.tr)
	s.member.Start()
	s.out = outbox.NewSender(s.flushShares)
	s.wg.Add(1)
	go s.syncLoop()
	return s.addr, nil
}

// Addr returns the advertised address.
func (s *Server) Addr() string { return s.addr }

// Close leaves the pool and stops the daemon. Shares buffered before
// Close get one last best-effort flush; none is sent after it.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		if s.out != nil {
			s.out.Close()
		}
		if s.member != nil {
			s.member.Stop()
		}
		if s.tr != nil {
			s.tr.Close()
		}
		s.svc.Close()
	})
}

// PoolView returns the current clique view of the Gossip pool.
func (s *Server) PoolView() clique.View { return s.member.View() }

// Metrics returns the daemon's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// Registrations returns a snapshot of the registration table.
func (s *Server) Registrations() []Registration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Registration, 0, len(s.regs))
	for _, r := range s.regs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func (s *Server) handleRegister(_ string, req *wire.Packet) (*wire.Packet, error) {
	r, err := DecodeRegistration(req.Payload)
	if err != nil {
		return nil, err
	}
	s.addRegistration(r)
	// Replicate the registration across the pool (volatile-but-replicated
	// state), merged per destination: registrations that arrive while a
	// flush is in flight go out as one MsgShareReg table per peer, not one
	// call each. The handler only buffers; the sender ships.
	s.enqueueShare(s.member.View(), r)
	s.out.Kick()
	return wire.Reply(MsgRegister, nil), nil
}

func (s *Server) handleShareReg(_ string, req *wire.Packet) (*wire.Packet, error) {
	rs, err := DecodeRegistrations(req.Payload)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		s.addRegistration(r)
	}
	return wire.Reply(MsgShareReg, nil), nil
}

func (s *Server) addRegistration(r Registration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := regKey{addr: r.Addr, key: r.Key}
	s.regs[k] = r
	s.failures[k] = 0
	s.metrics.Gauge("gossip.registrations").Set(int64(len(s.regs)))
}

func (s *Server) syncLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.SyncInterval)
	defer tick.Stop()
	round := 0
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.SyncRound()
			round++
			// Anti-entropy: periodically replicate the full registration
			// table across the pool, so Gossips that joined after a
			// component registered still learn about it.
			if round%antiEntropyEvery == 0 {
				s.ShareRegistrations()
			}
		}
	}
}

// antiEntropyEvery is the number of sync rounds between full
// registration-table exchanges.
const antiEntropyEvery = 5

// ShareRegistrations pushes the full registration table to every pool
// peer (best effort). The table merges with any buffered
// single-registration shares and the sender ships one pipelined
// MsgShareReg per peer.
func (s *Server) ShareRegistrations() {
	view := s.member.View()
	for _, r := range s.Registrations() {
		s.enqueueShare(view, r)
	}
	s.out.Kick()
}

// enqueueShare buffers r for every pool peer, last write wins per
// (addr, key).
func (s *Server) enqueueShare(view clique.View, r Registration) {
	k := regKey{addr: r.Addr, key: r.Key}
	for _, peer := range view.Members {
		if peer == s.addr {
			continue
		}
		if _, coalesced := s.shares.Put(peer, k, r); coalesced {
			s.metrics.Counter("gossip.share.coalesced").Inc()
		}
	}
}

// flushShares ships everything buffered as one MsgShareReg per peer,
// pipelined: every request is issued before any reply is awaited, so a
// slow peer does not serialize the fan-out. It reports whether there was
// anything to ship. Best effort — a failed share is dropped and the next
// anti-entropy round re-replicates the full table.
func (s *Server) flushShares() bool {
	ships := s.shares.TakeAll()
	s.metrics.Counter("gossip.share.flushes").Add(int64(len(ships)))
	calls := make([]*wire.PendingCall, len(ships))
	for i, sh := range ships {
		calls[i] = s.client.Go(sh.Dest, wire.NewRequest(MsgShareReg, RegTable(sh.Items)), s.cfg.CallTimeout)
	}
	for _, call := range calls {
		if resp, err := call.Wait(); err == nil {
			resp.Release()
		}
	}
	return len(ships) > 0
}

// responsible reports whether this Gossip owns key under the current pool
// partitioning: keys are hashed onto the sorted member list, so the
// synchronization workload is evenly distributed and rebalances
// dynamically as the clique view changes.
func (s *Server) responsible(key string, view clique.View) bool {
	if len(view.Members) <= 1 {
		return true
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	idx := int(h.Sum32()) % len(view.Members)
	if idx < 0 {
		idx += len(view.Members)
	}
	return view.Members[idx] == s.addr
}

// SyncRound performs one synchronization pass over all responsible keys.
// Exposed so tests and the simulation can drive rounds deterministically.
func (s *Server) SyncRound() {
	view := s.member.View()
	// Group live registrations by key.
	s.mu.Lock()
	byKey := make(map[string][]Registration)
	for _, r := range s.regs {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	s.mu.Unlock()
	s.metrics.Counter("gossip.sync.rounds").Inc()

	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		if s.responsible(k, view) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	// Each round with work roots its own trace: every get_state poll and
	// put_state push across every responsible key lands in one tree.
	root := wire.StartOp(nil, s.cfg.Tracer, "gossip.sync_round", wire.TraceContext{})
	root.Annotate("keys", fmt.Sprintf("%d", len(keys)))
	sort.Strings(keys)
	for _, key := range keys {
		regs := byKey[key]
		sort.Slice(regs, func(i, j int) bool { return regs[i].Addr < regs[j].Addr })
		s.syncKey(root.Context(), key, regs)
	}
	root.End(telemetry.OutcomeOK)
}

// syncKey polls every holder of key, identifies the freshest copy by
// pairwise comparison, and pushes it to the stale holders.
func (s *Server) syncKey(tc wire.TraceContext, key string, regs []Registration) {
	cmp, ok := LookupComparator(regs[0].Comparator)
	if !ok {
		cmp, _ = LookupComparator(CmpCounter)
	}
	type copyOf struct {
		reg   Registration
		stamp Stamped
	}
	var copies []copyOf
	getMsg := wire.MessageFunc(func(e *wire.Encoder) { e.PutString(key) })
	for _, r := range regs {
		fkey := forecast.Key{Resource: r.Addr, Event: "get_state"}
		to := s.timeout.Timeout(fkey)
		start := time.Now()
		req := wire.NewRequest(MsgGetState, getMsg)
		req.Trace = tc
		resp, err := s.client.Call(r.Addr, req, to)
		if err != nil {
			s.timeout.Observe(fkey, to) // a timeout took at least this long
			s.recordFailure(r)
			continue
		}
		s.timeout.Observe(fkey, time.Since(start))
		s.clearFailure(r)
		var st Stamped
		derr := resp.Decode(&st)
		resp.Release()
		if derr != nil {
			s.cfg.Logf("gossip: bad state from %s: %v", r.Addr, derr)
			continue
		}
		copies = append(copies, copyOf{reg: r, stamp: st})
	}
	if len(copies) == 0 {
		return
	}
	// Pairwise freshness comparison, as in the paper (N^2 comparisons for
	// N components): the freshest copy is the one no other copy beats.
	freshest := 0
	for i := range copies {
		beaten := false
		for j := range copies {
			if i != j && cmp(copies[j].stamp, copies[i].stamp) > 0 {
				beaten = true
				break
			}
		}
		if !beaten {
			freshest = i
			break
		}
	}
	win := copies[freshest].stamp
	if win.Counter == 0 && len(win.Data) == 0 {
		return // nobody has real state yet
	}
	for i, c := range copies {
		if i == freshest || cmp(win, c.stamp) <= 0 {
			continue
		}
		fkey := forecast.Key{Resource: c.reg.Addr, Event: "put_state"}
		to := s.timeout.Timeout(fkey)
		start := time.Now()
		err := s.client.CallMsgTraced(c.reg.Addr, MsgPutState, tc, win, nil, to)
		if err != nil {
			s.timeout.Observe(fkey, to)
			s.recordFailure(c.reg)
			continue
		}
		s.timeout.Observe(fkey, time.Since(start))
	}
}

func (s *Server) recordFailure(r Registration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.Counter("gossip.poll.fail").Inc()
	k := regKey{addr: r.Addr, key: r.Key}
	s.failures[k]++
	if s.failures[k] >= s.cfg.MaxFailures {
		delete(s.regs, k)
		delete(s.failures, k)
		s.metrics.Counter("gossip.evictions").Inc()
		s.metrics.Gauge("gossip.registrations").Set(int64(len(s.regs)))
		s.cfg.Logf("gossip: evicted %s/%s after %d failures", r.Addr, r.Key, s.cfg.MaxFailures)
		s.forgetHolderLocked(r.Addr)
	}
}

// forgetHolderLocked drops addr's time-out forecasters once no
// registration is left there, so dead holders do not accumulate them.
func (s *Server) forgetHolderLocked(addr string) {
	for k := range s.regs {
		if k.addr == addr {
			return
		}
	}
	s.timeout.Registry.Forget(forecast.Key{Resource: addr, Event: "get_state"})
	s.timeout.Registry.Forget(forecast.Key{Resource: addr, Event: "put_state"})
}

func (s *Server) clearFailure(r Registration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures[regKey{addr: r.Addr, key: r.Key}] = 0
}
