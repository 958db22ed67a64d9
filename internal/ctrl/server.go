package ctrl

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"everyware/internal/clique"
	"everyware/internal/forecast"
	"everyware/internal/gossip"
	"everyware/internal/pstate"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ServerConfig parameterizes the control-plane daemon.
type ServerConfig struct {
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// Transport selects the wire substrate (nil = TCP).
	Transport wire.Transport
	// Dialer overrides outbound connection setup (fault injection).
	Dialer wire.DialFunc
	// Retry is the outbound retry policy.
	Retry *wire.RetryPolicy
	// Metrics is the daemon registry (nil creates one). Its clock is the
	// controller's clock: hand in a registry on virtual time (SetNow) to
	// run the controller, its detector and its forecaster on it.
	Metrics *telemetry.Registry
	// Logf receives controller diagnostics.
	Logf func(format string, args ...any)
	// Tracer enables causal tracing for controller RPCs.
	Tracer wire.Tracer

	// Interval is the reconcile/publish period (default 500ms). Negative
	// disables the background loop — tests drive Tick directly.
	Interval time.Duration
	// CallTimeout bounds controller RPCs (default 2s).
	CallTimeout time.Duration
	// Detector tunes the failure detector (its Now defaults to the
	// registry's clock).
	Detector DetectorConfig

	// ID names this controller in the replicated group — the epoch
	// register's holder string and the ControllerID in status reports.
	// Default: the bound listen address.
	ID string
	// Peers lists every controller address in the replicated group
	// (including this one). The controllers form a sub-clique over these
	// addresses and elect the min-address leader; only the leader, fenced
	// by the pstate epoch register, runs reconcile actions. Empty means
	// solo mode: this controller always leads (but still fences its
	// actions through the epoch register when a durable store exists).
	Peers []string
	// ElectionInterval is the controller clique's heartbeat period
	// (default 200ms). A dead leader is succeeded within roughly four
	// intervals — the clique token timeout.
	ElectionInterval time.Duration
	// Grouped, with an empty Peers list, starts the controller as a mute
	// follower awaiting JoinGroup — for harnesses that only learn the
	// group's addresses after every member has bound an ephemeral port.
	Grouped bool

	// Load returns the current autoscale load signal for a role (ok false
	// = no signal this round). Nil falls back to polling live members'
	// telemetry for scheduler queue depth plus admission-shed deltas.
	Load func(role string) (float64, bool)
	// ScaleUp starts one new daemon of the role; the new member enters
	// the fleet by heartbeating. Nil disables growth actuation.
	ScaleUp func(role string) error
	// ScaleDown retires member m (stop its daemon and beater). Nil
	// disables shrink actuation.
	ScaleDown func(m Member) error
	// TargetLoad is the per-replica load the autoscaler sizes roles for
	// (default 100).
	TargetLoad float64
	// UpStreak / DownStreak are how many consecutive autoscale decisions
	// must agree before the count moves (defaults 2 and 5 — shrinking
	// demands sustained quiet, growing reacts faster). One count change
	// at most per decision round, fleet-wide.
	UpStreak, DownStreak int
	// ScaleCooldown is the minimum gap between actuations of the same
	// role (default 5s) — long enough for a started daemon to begin
	// heartbeating before the live count is re-judged.
	ScaleCooldown time.Duration
	// AlertFiring, when set, feeds the Grid Observatory into autoscale
	// decisions: it returns how many obs alerts tagged with the role are
	// currently firing, and each one adds a replica's worth (TargetLoad)
	// of predicted demand — so a forecast-anomaly or SLO-burn alert
	// leans the fleet toward growing before raw load alone would. Wire
	// it to (*obs.Server).Firing in-process, or to a FetchAlerts-based
	// closure for a remote observatory.
	AlertFiring func(role string) int

	// Gossips lists Gossip hosts; the controller registers there and
	// publishes the membership table and the pstate roster. Empty
	// disables publication.
	Gossips []string
	// PStates is the initial active persistent state roster — both the
	// quorum the controller stores its fleet spec in and the membership
	// it heals via standby promotion. Standbys are not listed: any live
	// pstate-role member whose address is outside the roster is a
	// promotion candidate.
	PStates []string
	// Spec is the initial desired state. Stored durably on start unless
	// the replicated store already holds a newer version.
	Spec *FleetSpec

	// Restart is the dead-daemon hook: recreate member m in place (same
	// ID, same address). Nil disables restarts.
	Restart func(m Member) error
	// ApplyConfig rolls member m onto the role spec's config version and
	// release version. Nil disables rollouts.
	ApplyConfig func(m Member, spec ServiceSpec) error

	// BackoffBase/BackoffMax bound the crash-loop restart back-off
	// (defaults 1s / 30s). Each consecutive restart of the same member
	// doubles the delay before the next attempt is allowed.
	BackoffBase, BackoffMax time.Duration
	// CrashLoopReset is how long a member must stay alive before its
	// restart history is forgiven (default 1 minute).
	CrashLoopReset time.Duration
	// MaxErrorRate is the health-gate ceiling on a member's served-error
	// fraction during rollouts (default 0.5).
	MaxErrorRate float64
}

// Server is the control-plane daemon: it accumulates heartbeats into a
// membership table, runs the failure detector over them, and — when it
// is the elected, epoch-fenced leader of the controller group — executes
// the reconcile loop (restarts, rollouts, standby promotion, autoscale)
// against the declared fleet spec. Followers ingest the same heartbeat
// stream, so their detector state is warm the moment they take over.
type Server struct {
	cfg     ServerConfig
	svc     *wire.Service
	client  *wire.Client
	metrics *telemetry.Registry
	det     *Detector
	agent   *gossip.Agent
	rs      *pstate.ReplicaSet
	fc      *forecast.Registry
	logf    func(string, ...any)
	id      string

	clq   *clique.Member
	clqEP *clique.Endpoint

	mu          sync.Mutex
	members     map[string]Member
	alive       map[string]bool
	deadSince   map[string]time.Time
	aliveSince  map[string]time.Time
	roster      []string
	spec        *FleetSpec
	restartNext map[string]time.Time
	restartN    map[string]int
	rolling     map[string]string // role -> member ID mid-rollout
	registered  bool
	lastTable   string // stable reduction of the last published membership
	lastRoster  string
	tickN       uint64

	// Leadership and fencing state.
	isLeader    bool      // controller-clique verdict: we lead the group
	leaderID    string    // current clique leader address
	epoch       uint64    // fencing epoch held (0 = none)
	needAcquire bool      // claim a fresh epoch before acting
	fencedOut   bool      // deposed: fence rejected, awaiting a new view
	deposedAt   time.Time // when the fence last rejected this leader

	// Autoscaler state.
	upN, downN map[string]int       // per-role decision streaks
	scaleWait  map[string]time.Time // per-role actuation cooldown
	lastShed   map[string]float64   // per-member shed counter watermark

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewServer assembles a controller (Start binds and begins reconciling).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Interval == 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.CrashLoopReset <= 0 {
		cfg.CrashLoopReset = time.Minute
	}
	if cfg.MaxErrorRate <= 0 {
		cfg.MaxErrorRate = 0.5
	}
	if cfg.ElectionInterval <= 0 {
		cfg.ElectionInterval = 200 * time.Millisecond
	}
	if cfg.TargetLoad <= 0 {
		cfg.TargetLoad = 100
	}
	if cfg.UpStreak <= 0 {
		cfg.UpStreak = 2
	}
	if cfg.DownStreak <= 0 {
		cfg.DownStreak = 5
	}
	if cfg.ScaleCooldown <= 0 {
		cfg.ScaleCooldown = 5 * time.Second
	}
	svc := wire.NewService(wire.ServiceConfig{
		Name:       "ctrl",
		ListenAddr: cfg.ListenAddr,
		Transport:  cfg.Transport,
		Metrics:    cfg.Metrics,
		Dialer:     cfg.Dialer,
		Retry:      cfg.Retry,
		Logf:       cfg.Logf,
		Tracer:     cfg.Tracer,
	})
	if cfg.Detector.Now == nil {
		cfg.Detector.Now = svc.Metrics().Now
	}
	s := &Server{
		cfg:         cfg,
		svc:         svc,
		client:      svc.Client(),
		metrics:     svc.Metrics(),
		det:         NewDetector(cfg.Detector),
		fc:          forecast.NewRegistry(),
		members:     make(map[string]Member),
		alive:       make(map[string]bool),
		deadSince:   make(map[string]time.Time),
		aliveSince:  make(map[string]time.Time),
		roster:      append([]string(nil), cfg.PStates...),
		spec:        cfg.Spec,
		restartNext: make(map[string]time.Time),
		restartN:    make(map[string]int),
		rolling:     make(map[string]string),
		upN:         make(map[string]int),
		downN:       make(map[string]int),
		scaleWait:   make(map[string]time.Time),
		lastShed:    make(map[string]float64),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	s.fc.Now = s.metrics.Now
	s.logf = func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf("ctrl: "+format, args...)
		}
	}
	svc.Handle(MsgHeartbeat, wire.HandlerFunc(s.handleHeartbeat))
	svc.Handle(MsgMembers, wire.HandlerFunc(s.handleMembers))
	svc.Handle(MsgStatus, wire.HandlerFunc(s.handleStatus))
	return s, nil
}

// Start binds the listener, recovers durable state (fleet spec, roster)
// from the replicated store, registers with Gossip, and launches the
// reconcile loop. Returns the bound address.
func (s *Server) Start() (string, error) {
	addr, err := s.svc.Start()
	if err != nil {
		return "", err
	}
	s.id = s.cfg.ID
	if s.id == "" {
		s.id = addr
	}
	if len(s.cfg.PStates) > 0 {
		rs, err := pstate.NewReplicaSet(s.client, pstate.ReplicaSetConfig{
			Addrs:   s.cfg.PStates,
			Timeout: s.cfg.CallTimeout,
			Metrics: s.metrics,
			Tracer:  s.cfg.Tracer,
		})
		if err != nil {
			s.svc.Close()
			return "", err
		}
		s.rs = rs
		s.recoverDurable()
	}
	if len(s.cfg.Gossips) > 0 {
		s.agent = gossip.NewAgent(s.svc.Server(), addr)
		if err := s.agent.Track(MembershipKey, gossip.CmpCounter, nil); err != nil {
			s.svc.Close()
			return "", err
		}
		if err := s.agent.Track(PStateRosterKey, gossip.CmpCounter, nil); err != nil {
			s.svc.Close()
			return "", err
		}
		s.register()
	}
	s.startElection(addr)
	if s.cfg.Interval > 0 {
		go s.loop()
	} else {
		close(s.done)
	}
	return addr, nil
}

// recoverDurable adopts the stored fleet spec (if newer than the
// configured one) and the last persisted roster, then writes the
// configured spec down if the store has nothing newer. A controller
// restart therefore resumes reconciling the same desired state — the
// spec's durability is the pstate quorum's, not this process's.
func (s *Server) recoverDurable() {
	stored, found, err := LoadSpec(s.rs)
	switch {
	case err != nil:
		s.logf("spec load: %v", err)
	case found && (s.spec == nil || stored.Version > s.spec.Version):
		s.spec = stored
	}
	if s.spec != nil && (!found || stored.Version < s.spec.Version) {
		if err := StoreSpec(s.rs, s.spec); err != nil && err != pstate.ErrSpooled {
			s.logf("spec store: %v", err)
		}
	}
	if o, ok, err := s.rs.Fetch(RosterObjectName); err == nil && ok {
		if roster, err := DecodeRoster(o.Data); err == nil && len(roster) > 0 {
			s.mu.Lock()
			s.roster = roster
			s.mu.Unlock()
			s.rs.SetAddrs(roster)
		}
	}
}

// register announces the controller's published keys to the first
// reachable Gossip host; retried from the reconcile loop until it lands.
func (s *Server) register() {
	for _, g := range s.cfg.Gossips {
		if err := s.agent.Register(s.client, g, MembershipKey, gossip.CmpCounter, s.cfg.CallTimeout); err != nil {
			continue
		}
		if err := s.agent.Register(s.client, g, PStateRosterKey, gossip.CmpCounter, s.cfg.CallTimeout); err != nil {
			continue
		}
		s.mu.Lock()
		s.registered = true
		s.mu.Unlock()
		return
	}
}

func (s *Server) loop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.svc.Addr() }

// Metrics returns the controller's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// Roster returns the current active pstate roster.
func (s *Server) Roster() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.roster...)
}

// Close stops the reconcile loop, the election plane, and the daemon.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.mu.Lock()
		clq, clqEP := s.clq, s.clqEP
		// Renounce leadership: a closed controller's handle must not
		// masquerade as the acting leader to harnesses scanning a group
		// for who leads — the survivors elect the real successor.
		s.isLeader = false
		s.fencedOut = false
		s.epoch = 0
		s.mu.Unlock()
		if clq != nil {
			clq.Stop()
		}
		if clqEP != nil {
			clqEP.Close()
		}
		s.svc.Close()
	})
}

// handleHeartbeat ingests one liveness attestation.
func (s *Server) handleHeartbeat(from string, req *wire.Packet) (*wire.Packet, error) {
	hb, err := DecodeHeartbeat(req.Payload)
	if err != nil {
		return nil, fmt.Errorf("ctrl: bad heartbeat: %w", err)
	}
	if hb.ID == "" {
		return nil, fmt.Errorf("ctrl: heartbeat without member ID")
	}
	s.metrics.Counter("ctrl.heartbeats").Inc()
	s.mu.Lock()
	s.members[hb.ID] = hb.Member
	s.mu.Unlock()
	s.det.Observe(hb.ID)
	return wire.Reply(MsgHeartbeat, nil), nil
}

// membershipTable snapshots the controller's verdict on every member.
func (s *Server) membershipTable() []MemberStatus {
	s.mu.Lock()
	members := make([]Member, 0, len(s.members))
	for _, m := range s.members {
		members = append(members, m)
	}
	s.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	out := make([]MemberStatus, 0, len(members))
	for _, m := range members {
		st := MemberStatus{Member: m}
		st.Phi, st.Alive = s.det.verdict(m.ID)
		if last, ok := s.det.LastSeen(m.ID); ok {
			st.LastSeenUnixNanos = last.UnixNano()
		}
		st.Beats = s.det.Beats(m.ID)
		out = append(out, st)
	}
	return out
}

func (s *Server) handleMembers(string, *wire.Packet) (*wire.Packet, error) {
	return wire.Reply(MsgMembers, Membership(s.membershipTable())), nil
}

func (s *Server) handleStatus(string, *wire.Packet) (*wire.Packet, error) {
	table := s.membershipTable()
	s.mu.Lock()
	st := Status{
		Roster:       append([]string(nil), s.roster...),
		ControllerID: s.id,
		LeaderID:     s.leaderID,
		Epoch:        s.epoch,
	}
	switch {
	case s.fencedOut:
		st.Role = CtrlDeposed
	case s.isLeader:
		st.Role = CtrlLeader
	default:
		st.Role = CtrlFollower
	}
	if s.spec != nil {
		st.SpecVersion = s.spec.Version
		st.SpecEpoch = s.spec.Epoch
	}
	inRoster := make(map[string]bool, len(s.roster))
	for _, a := range s.roster {
		inRoster[a] = true
	}
	s.mu.Unlock()
	for _, m := range table {
		if m.Alive {
			st.Live++
		} else {
			st.Dead++
		}
		if m.Role == RolePState && m.Alive && !inRoster[m.Addr] {
			st.Standbys = append(st.Standbys, m.Addr)
		}
	}
	st.Restarts = s.metrics.Counter("ctrl.restarts").Value()
	st.Promotions = s.metrics.Counter("ctrl.promotions").Value()
	st.Rollouts = s.metrics.Counter("ctrl.rollouts").Value()
	st.Backoffs = s.metrics.Counter("ctrl.backoffs").Value()
	return wire.Reply(MsgStatus, st), nil
}
