package core

import (
	"fmt"
	"sync"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/gossip"
	"everyware/internal/logsvc"
	"everyware/internal/obs"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// DeploymentConfig sizes a local EveryWare service constellation — the
// "S", "G", "P" and "L" boxes of Figure 1 — for examples, tests, and
// single-machine runs. Every service binds an ephemeral localhost port.
type DeploymentConfig struct {
	// Gossips is the state-exchange pool size (default 1).
	Gossips int
	// Schedulers is the scheduling server count (default 1).
	Schedulers int
	// N, K define the search problem (default 17, 4).
	N, K int
	// Heuristics restricts the work generator (default: all).
	Heuristics []ramsey.Heuristic
	// StepsPerCycle is the per-report step budget (default 2000).
	StepsPerCycle int64
	// PStateDir enables a persistent state manager rooted there.
	PStateDir string
	// ExtraPStateDirs starts additional persistent state managers, one
	// per directory — the paper stationed managers at multiple trusted
	// sites and components checkpoint to all of them.
	ExtraPStateDirs []string
	// SyncInterval tunes the Gossip pool (default 200ms for local runs).
	SyncInterval time.Duration
	// Transport selects the wire substrate every service binds on
	// (nil = TCP). Components must be given the same transport.
	Transport wire.Transport
	// Controllers, when positive, starts the self-healing control plane
	// with that many controller replicas (0 means none): every daemon is
	// shadowed by a heartbeat sidecar, the controller's failure detector
	// declares silent daemons dead, dead daemons are recreated in place
	// at the same address, and a dead persistent state replica is
	// replaced by promoting a standby into the quorum roster. With more
	// than one, the controllers form a replicated group: all of them
	// ingest every heartbeat (beaters broadcast), a clique election picks
	// the acting leader, and the leader fences its reconcile actions
	// through the pstate epoch register — kill the leader and a warm
	// follower takes over.
	Controllers int
	// SchedulerMin/SchedulerMax, when Max > 0, enable forecast-driven
	// autoscaling of the scheduler role between those bounds: the leader
	// polls shard queue depths and admission-shed rates, forecasts the
	// load, and grows or shrinks the scheduler fleet one daemon at a
	// time. Requires Controllers and a persistent state quorum (the fleet
	// spec lives there).
	SchedulerMin, SchedulerMax int
	// SchedulerTargetLoad is the per-shard load the autoscaler sizes the
	// scheduler fleet for (default 100).
	SchedulerTargetLoad float64
	// StandbyPStateDirs starts additional persistent state managers that
	// are deliberately OUTSIDE the active quorum roster — promotion
	// candidates the controller drafts when a roster replica dies.
	// Requires Controllers.
	StandbyPStateDirs []string
	// HeartbeatInterval is the beater cadence and the controller's
	// reconcile period (default 200ms for local runs).
	HeartbeatInterval time.Duration
	// Observatory starts a Grid Observatory daemon scraping every
	// service in the constellation into per-metric time series, with
	// forecast-anomaly alert rules over the fleet's health gauges. The
	// scrape set follows the scheduler roster as the fleet scales. With
	// Controllers, firing alerts feed the autoscaler's load forecast
	// (ctrl.ServerConfig.AlertFiring); with a persistent state quorum,
	// the alert table survives observatory restarts.
	Observatory bool
	// ObsInterval is the observatory scrape period (default 1s).
	ObsInterval time.Duration
}

// Deployment is a running local constellation.
type Deployment struct {
	GossipAddrs []string
	SchedAddrs  []string
	PStateAddr  string
	PStateAddrs []string
	// StandbyPStateAddrs lists the persistent state managers running
	// outside the active roster (promotion candidates).
	StandbyPStateAddrs []string
	LogAddr            string
	// CtrlAddr is the first control-plane daemon's address ("" without
	// Controllers); CtrlAddrs lists the whole replicated group.
	CtrlAddr  string
	CtrlAddrs []string
	// ObsAddr is the observatory's introspection address ("" without
	// Observatory) — point ew obs-watch and ew top -obs here.
	ObsAddr string

	cfg DeploymentConfig

	// members holds every daemon of the constellation. Boot fills it, the
	// controllers' restart, rollout and scale hooks operate on it, the
	// accessors read it, and Close closes it.
	members *MemberTable

	// mu serializes changes to the scheduler roster (and their
	// publication) and guards the observatory handle.
	mu         sync.Mutex
	nextSchedN int
	obsSrv     *obs.Server

	rosterSvc   *wire.Service
	rosterAgent *gossip.Agent
	ring        *scale.Ring
	transport   wire.Transport
}

// StartDeployment launches the requested services.
func StartDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Gossips <= 0 {
		cfg.Gossips = 1
	}
	if cfg.Schedulers <= 0 {
		cfg.Schedulers = 1
	}
	if cfg.N == 0 {
		cfg.N = 17
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 200 * time.Millisecond
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	d := &Deployment{cfg: cfg, transport: cfg.Transport, members: new(MemberTable)}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	var err error

	// Logging server first so other services can reference it.
	if d.LogAddr, err = d.members.Add("logd1", ctrl.RoleLogSvc, d.startLog); err != nil {
		return nil, err
	}

	// Gossip pool: later members bootstrap off the earlier (well-known)
	// addresses.
	for i := 0; i < cfg.Gossips; i++ {
		addr, err := d.members.Add(fmt.Sprintf("g%d", i+1), ctrl.RoleGossip, d.startGossip)
		if err != nil {
			return nil, err
		}
		d.GossipAddrs = append(d.GossipAddrs, addr)
	}

	for i := 0; i < cfg.Schedulers; i++ {
		if _, err := d.AddScheduler(); err != nil {
			return nil, err
		}
	}

	// Publish the scheduler roster through the Gossip service so clients
	// can learn the viable schedulers dynamically (section 5.4).
	d.rosterSvc = wire.NewService(wire.ServiceConfig{
		ListenAddr: bootAddr,
		Transport:  cfg.Transport,
		Silent:     true,
	})
	rosterAddr, err := d.rosterSvc.Start()
	if err != nil {
		return nil, err
	}
	d.rosterAgent = gossip.NewAgent(d.rosterSvc.Server(), rosterAddr)
	if err := d.rosterAgent.Track(SchedulerRosterKey, gossip.CmpCounter, nil); err != nil {
		return nil, err
	}
	if err := d.rosterAgent.Register(d.rosterSvc.Client(), d.GossipAddrs[0], SchedulerRosterKey, gossip.CmpCounter, 2*time.Second); err != nil {
		return nil, fmt.Errorf("core: roster registration: %w", err)
	}
	if err := d.rosterAgent.Track(scale.RingKey, gossip.CmpCounter, nil); err != nil {
		return nil, err
	}
	if err := d.rosterAgent.Register(d.rosterSvc.Client(), d.GossipAddrs[0], scale.RingKey, gossip.CmpCounter, 2*time.Second); err != nil {
		return nil, fmt.Errorf("core: ring registration: %w", err)
	}
	d.PublishRoster()

	// Persistent state managers, numbered pstate1.. in boot order: the
	// roster (the primary, when configured, then the extras), then the
	// standbys.
	var dirs []string
	if cfg.PStateDir != "" {
		dirs = append(dirs, cfg.PStateDir)
	}
	dirs = append(dirs, cfg.ExtraPStateDirs...)
	nRoster := len(dirs)
	for i, dir := range append(dirs, cfg.StandbyPStateDirs...) {
		standby := i >= nRoster
		addr, err := d.members.Add(fmt.Sprintf("pstate%d", i+1), ctrl.RolePState, d.startPState(dir, standby))
		if err != nil {
			return nil, err
		}
		if standby {
			d.StandbyPStateAddrs = append(d.StandbyPStateAddrs, addr)
		} else {
			d.PStateAddrs = append(d.PStateAddrs, addr)
		}
	}
	if cfg.PStateDir != "" {
		d.PStateAddr = d.PStateAddrs[0]
	}
	// A roster replica booted knowing only the siblings bound before it.
	for _, ps := range d.PStates() {
		ps.SetPeers(Without(d.PStateAddrs, ps.Addr()))
	}

	if cfg.Controllers > 0 {
		if err := d.startControllers(); err != nil {
			return nil, err
		}
	}
	if cfg.Observatory {
		if err := d.startObservatory(); err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

// The stock start closures: how a daemon of each role is configured in
// this constellation, written once. Sibling lists are read when the
// closure runs, so a member booted early knows the siblings bound so far
// and one restarted in place knows them all.

func (d *Deployment) startLog(listen string) (Daemon, error) {
	return StartDaemon(logsvc.NewServer(logsvc.ServerConfig{ListenAddr: listen, Transport: d.transport}))
}

func (d *Deployment) startGossip(listen string) (Daemon, error) {
	return StartDaemon(gossip.NewServer(gossip.ServerConfig{
		ListenAddr:   listen,
		WellKnown:    Without(d.GossipAddrs, listen),
		SyncInterval: d.cfg.SyncInterval,
		Heartbeat:    d.cfg.SyncInterval,
		Transport:    d.transport,
	}), nil)
}

func (d *Deployment) startSched(listen string) (Daemon, error) {
	return StartDaemon(sched.NewServer(sched.ServerConfig{
		ListenAddr:   listen,
		N:            d.cfg.N,
		K:            d.cfg.K,
		Heuristics:   d.cfg.Heuristics,
		DefaultSteps: d.cfg.StepsPerCycle,
		LogAddr:      d.LogAddr,
		Transport:    d.transport,
	}), nil)
}

// startPState configures a persistent state manager over dir. A roster
// replica anti-entropies against its siblings so the fleet converges even
// when a checkpoint missed some of them; a standby lives outside the
// roster — no peers, no traffic — a cold spare the controller promotes
// (and backfills) on demand.
func (d *Deployment) startPState(dir string, standby bool) StartFunc {
	return func(listen string) (Daemon, error) {
		cfg := pstate.ServerConfig{ListenAddr: listen, Dir: dir, Transport: d.transport}
		if !standby {
			cfg.Peers = Without(d.PStateAddrs, listen)
		}
		return StartDaemon(pstate.NewServer(cfg))
	}
}

// DefaultObsRules is the constellation's stock alert rule set: a
// forecast-anomaly watch on every Gossip's clique size (partitions and
// member loss), one on every scheduler's queue depth (load bursts feed
// the autoscaler through the controller's AlertFiring hook), and a
// burn-rate watch on scheduler report dispatch errors.
func DefaultObsRules() []obs.Rule {
	return []obs.Rule{
		{
			Name: "clique-anomaly", Kind: obs.RuleAnomaly,
			Metric: "clique.members", Daemon: "gossip", Role: ctrl.RoleGossip,
			Tolerance: 0.5,
		},
		{
			Name: "sched-queue-anomaly", Kind: obs.RuleAnomaly,
			Metric: "sched.queue.depth", Daemon: "sched", Role: ctrl.RoleSched,
			Tolerance: 3,
		},
		{
			Name: "sched-lost-burn", Kind: obs.RuleBurnRate,
			Metric: "sched.reports.rate", ErrMetric: "sched.migrations.rate",
			Daemon: "sched", Role: ctrl.RoleSched, Limit: 0.5,
		},
	}
}

// startObservatory launches the Grid Observatory over every service
// address. Static targets cover the fixed-address daemons; the roster
// hook follows the scheduler fleet through autoscaling.
func (d *Deployment) startObservatory() error {
	interval := d.cfg.ObsInterval
	if interval == 0 {
		interval = time.Second
	}
	targets := append([]string(nil), d.GossipAddrs...)
	targets = append(targets, d.PStateAddrs...)
	targets = append(targets, d.StandbyPStateAddrs...)
	targets = append(targets, d.CtrlAddrs...)
	targets = append(targets, d.LogAddr)
	s := obs.New(obs.Config{
		Name:      "obs",
		Transport: d.transport,
		Silent:    true,
		Interval:  interval,
		Targets:   targets,
		Roster:    func() []string { return d.members.Addrs(ctrl.RoleSched) },
		Rules:     DefaultObsRules(),
		PStates:   append([]string(nil), d.PStateAddrs...),
	})
	addr, err := s.Start()
	if err != nil {
		return fmt.Errorf("core: observatory: %w", err)
	}
	d.mu.Lock()
	d.obsSrv = s
	d.mu.Unlock()
	d.ObsAddr = addr
	return nil
}

// startControllers launches the control-plane group and puts the fleet
// under it. Every controller ingests every heartbeat (the sidecars
// broadcast), so follower detector state is warm; the group elects its
// acting leader over a controller clique once all the members' addresses
// are known.
func (d *Deployment) startControllers() error {
	var spec *ctrl.FleetSpec
	if d.cfg.SchedulerMax > 0 {
		spec = &ctrl.FleetSpec{Version: 1, Services: []ctrl.ServiceSpec{{
			Role:  ctrl.RoleSched,
			Count: d.cfg.Schedulers,
			Min:   d.cfg.SchedulerMin,
			Max:   d.cfg.SchedulerMax,
		}}}
	}
	for i := 0; i < d.cfg.Controllers; i++ {
		id := fmt.Sprintf("ctrl%d", i+1)
		addr, err := d.members.Add(id, ctrl.RoleCtrl, func(listen string) (Daemon, error) {
			cfg := ctrl.ServerConfig{
				ListenAddr:  listen,
				Transport:   d.transport,
				Interval:    d.cfg.HeartbeatInterval,
				ID:          id,
				Grouped:     d.cfg.Controllers > 1,
				Gossips:     append([]string(nil), d.GossipAddrs...),
				PStates:     append([]string(nil), d.PStateAddrs...),
				Restart:     d.restartMember,
				ApplyConfig: d.applyMemberSpec,
				TargetLoad:  d.cfg.SchedulerTargetLoad,
			}
			if d.cfg.Observatory {
				// The observatory starts after the controllers (it scrapes
				// their addresses), so the hook resolves it lazily.
				cfg.AlertFiring = d.obsFiring
			}
			if spec != nil {
				cfg.Spec = spec
				cfg.ScaleUp = d.scaleUpRole
				cfg.ScaleDown = d.retireMember
			}
			return StartDaemon(ctrl.NewServer(cfg))
		})
		if err != nil {
			return err
		}
		d.CtrlAddrs = append(d.CtrlAddrs, addr)
	}
	d.CtrlAddr = d.CtrlAddrs[0]
	d.members.Shadow(d.cfg.HeartbeatInterval, d.transport)
	return nil
}

// restartMember is the controllers' restart hook: recreate the dead
// daemon in place — same address, same data directory, same start
// closure as at boot — so the rest of the fleet's configuration stays
// valid.
func (d *Deployment) restartMember(m ctrl.Member) error {
	return d.members.Restart(m.ID)
}

// applyMemberSpec is the controllers' rollout hook: recreate the daemon
// in place (the local stand-in for installing a new release or config),
// then have its sidecar attest the new versions — the heartbeat stream
// is how the rollout loop learns the member converged.
func (d *Deployment) applyMemberSpec(m ctrl.Member, spec ctrl.ServiceSpec) error {
	if err := d.restartMember(m); err != nil {
		return err
	}
	if e, ok := d.members.Get(m.ID); ok && e.Beater != nil {
		e.Beater.SetConfigVer(spec.ConfigVer)
		e.Beater.SetVersion(spec.Version)
	}
	return nil
}

// scaleUpRole is the controllers' growth hook: start one daemon of the
// role. Only the scheduler role autoscales in the local constellation.
func (d *Deployment) scaleUpRole(role string) error {
	if role != ctrl.RoleSched {
		return fmt.Errorf("core: role %q does not autoscale", role)
	}
	_, err := d.AddScheduler()
	return err
}

// retireMember is the controllers' shrink hook: stop the member's
// daemon and its sidecar and drop it from the published roster.
func (d *Deployment) retireMember(m ctrl.Member) error {
	if m.Role != ctrl.RoleSched {
		return fmt.Errorf("core: role %q does not autoscale", m.Role)
	}
	if !d.RemoveScheduler(m.Addr) {
		return fmt.Errorf("core: no scheduler at %s to retire", m.Addr)
	}
	return nil
}

// AddScheduler starts one more scheduling server — sched<n>, counting
// every scheduler the deployment ever started — and republishes the
// roster and the sharding ring. Returns the new shard's address.
func (d *Deployment) AddScheduler() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSchedN++
	addr, err := d.members.Add(fmt.Sprintf("sched%d", d.nextSchedN), ctrl.RoleSched, d.startSched)
	if err != nil {
		return "", err
	}
	d.SchedAddrs = append(d.SchedAddrs, addr)
	d.PublishRoster()
	return addr, nil
}

// Schedulers exposes the running scheduling servers (e.g. to read Found).
func (d *Deployment) Schedulers() []*sched.Server {
	return Daemons[*sched.Server](d.members, ctrl.RoleSched)
}

// GossipServers exposes the running Gossip pool.
func (d *Deployment) GossipServers() []*gossip.Server {
	return Daemons[*gossip.Server](d.members, ctrl.RoleGossip)
}

// PState exposes the primary persistent state manager (nil if not
// configured).
func (d *Deployment) PState() *pstate.Server {
	if d.PStateAddr == "" {
		return nil
	}
	return d.PStates()[0]
}

// PStates exposes every running persistent state manager in the active
// roster (standbys excluded).
func (d *Deployment) PStates() []*pstate.Server {
	return Daemons[*pstate.Server](d.members, ctrl.RolePState)[:len(d.PStateAddrs)]
}

// StandbyPStates exposes the persistent state managers outside the
// active roster.
func (d *Deployment) StandbyPStates() []*pstate.Server {
	return Daemons[*pstate.Server](d.members, ctrl.RolePState)[len(d.PStateAddrs):]
}

// LogServer exposes the logging server.
func (d *Deployment) LogServer() *logsvc.Server {
	return Daemons[*logsvc.Server](d.members, ctrl.RoleLogSvc)[0]
}

// Controller exposes the first control-plane daemon (nil without
// Controllers).
func (d *Deployment) Controller() *ctrl.Server {
	if cs := d.Controllers(); len(cs) > 0 {
		return cs[0]
	}
	return nil
}

// Controllers exposes the whole control-plane group.
func (d *Deployment) Controllers() []*ctrl.Server {
	return Daemons[*ctrl.Server](d.members, ctrl.RoleCtrl)
}

// LeaderController returns the controller currently acting as the
// fenced group leader (nil when none has won the election yet).
func (d *Deployment) LeaderController() *ctrl.Server {
	for _, cs := range d.Controllers() {
		if cs.Role() == ctrl.CtrlLeader {
			return cs
		}
	}
	return nil
}

// NewComponentConfig returns a ComponentConfig wired to this deployment.
func (d *Deployment) NewComponentConfig(id, infra string) ComponentConfig {
	cfg := ComponentConfig{
		ID:         id,
		Infra:      infra,
		Transport:  d.transport,
		Schedulers: append([]string(nil), d.SchedAddrs...),
		Gossips:    append([]string(nil), d.GossipAddrs...),
		LogServers: []string{d.LogAddr},
	}
	if len(d.PStateAddrs) > 0 {
		cfg.PStates = append([]string(nil), d.PStateAddrs...)
	}
	return cfg
}

// PublishRoster re-announces the current scheduler list through the
// Gossip service (called automatically at start; call again after adding
// or removing schedulers). The consistent-hash ring over the same
// membership is published alongside it: the roster is the flat failover
// list for old-style clients, the ring is the sharded routing table.
func (d *Deployment) PublishRoster() {
	if d.rosterAgent == nil {
		return
	}
	d.rosterAgent.Set(SchedulerRosterKey, ctrl.EncodeRoster(d.SchedAddrs))
	if d.ring == nil {
		d.ring = scale.NewRing(d.SchedAddrs, 0)
	} else {
		d.ring = d.ring.WithNodes(d.SchedAddrs)
	}
	d.rosterAgent.Set(scale.RingKey, scale.EncodeRing(d.ring))
}

// Ring returns the most recently published scheduler ring.
func (d *Deployment) Ring() *scale.Ring { return d.ring }

// Observatory returns the running Grid Observatory (nil without
// Observatory).
func (d *Deployment) Observatory() *obs.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.obsSrv
}

// obsFiring is the controllers' AlertFiring hook: currently-firing
// observatory alerts for a role, zero before the observatory is up.
func (d *Deployment) obsFiring(role string) int {
	if s := d.Observatory(); s != nil {
		return s.Firing(role)
	}
	return 0
}

// RemoveScheduler stops the scheduling server at addr (and its heartbeat
// sidecar), drops it from the roster, and republishes both the roster and
// a re-sharded ring through the Gossip service. Components re-route their
// reports to the surviving shards on the next ring update; consistent
// hashing bounds how many work-keys move. Returns false if no scheduler
// binds addr.
func (d *Deployment) RemoveScheduler(addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.members.Entries(ctrl.RoleSched) {
		if e.Addr == addr && d.members.Remove(e.ID) == nil {
			d.SchedAddrs = Without(d.SchedAddrs, addr)
			d.PublishRoster()
			return true
		}
	}
	return false
}

// Close stops every service: the observatory, then the member table
// (sidecars, controllers, services), then the roster publisher.
// Idempotent, and safe against a controller restarting a daemon at the
// same moment — the table refuses the restart or reaps its result.
func (d *Deployment) Close() {
	if s := d.Observatory(); s != nil {
		s.Close()
	}
	d.members.Close()
	if d.rosterSvc != nil {
		d.rosterSvc.Close()
	}
}
