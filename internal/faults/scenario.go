package faults

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/core"
	"everyware/internal/ctrl"
	"everyware/internal/dtrace"
	"everyware/internal/gossip"
	"everyware/internal/logsvc"
	"everyware/internal/obs"
	"everyware/internal/pstate"
	"everyware/internal/sched"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ScenarioConfig parameterizes a miniature SC98 run under chaos: real
// localhost daemons — a Gossip pool over the clique protocol, scheduling
// servers, a persistent state manager — and compute components doing
// Ramsey search, with every inter-process call routed through a seeded
// fault injector.
type ScenarioConfig struct {
	// Seed drives every fault schedule (and is reported back, so a
	// failing run can be replayed exactly).
	Seed int64
	// Faults sets the per-message fault probabilities. Seed is taken
	// from the Seed field above.
	Faults Config
	// Gossips, Schedulers, Components size the deployment
	// (defaults 3, 2, 3).
	Gossips    int
	Schedulers int
	Components int
	// Cycles is the per-component scheduling cycle budget (default 6).
	Cycles int
	// PStates is the persistent state manager replica count (default 3).
	// Each replica stores under its own subdirectory of Dir and
	// anti-entropies against its siblings; components quorum-write
	// checkpoints across all of them.
	PStates int
	// Dir is the root storage directory (required); replica i stores
	// under Dir/pstate<i>.
	Dir string
	// PartitionHeal, when true, isolates the last Gossip from its pool
	// peers mid-run, verifies the clique splits, heals the cut, and
	// verifies the pool re-merges.
	PartitionHeal bool
	// Transport selects the wire substrate every daemon, component, and
	// probe runs on (nil = TCP). A wire.MemTransport runs the whole
	// scenario in-process — same protocol, same fault injector, no
	// kernel sockets.
	Transport wire.Transport
	// Trace, when true, arms every daemon with a causal tracer reporting
	// to a logsvc-backed trace collector started by the harness. The
	// result then carries the collected spans and assembled trace trees,
	// so chaos tests can assert that retries and fail-over hops appear as
	// correctly-parented child spans.
	Trace bool
	// Obs, when true, starts a Grid Observatory daemon scraping every
	// scenario daemon with a forecast-anomaly rule on the clique
	// membership gauge. The partition experiment then additionally
	// records whether the anomaly alert fired while the cut was open and
	// whether the alert table went quiet again after the heal — the
	// observability plane watching the same incident the clique
	// machinery is riding out.
	Obs bool
	// SchedOutage, when true, black-holes the first scheduler briefly
	// while the workload runs. Reports in flight exhaust their retry
	// ladder against it and fail over to the alternate, so a Trace run
	// deterministically collects traces containing retry child spans and
	// a fail-over hop (chaos alone makes those probabilistic).
	SchedOutage bool
	// PStateCrash, when true, runs the durability experiment: a
	// background writer quorum-writes checkpoints throughout the run
	// while the harness crashes pstate2 mid-persist (torn final write),
	// kills and restarts it from the same data directory, isolates the
	// last replica, and heals. Afterwards the run asserts the fleet
	// converged to identical digests and that every acknowledged write
	// is recoverable from every single replica.
	PStateCrash bool
	// WriteLoad runs the background durability writer (and its end-of-run
	// acked-write audit) without the crash-point machinery. PStateCrash
	// implies it.
	WriteLoad bool
	// Ctrl starts the self-healing control plane: a controller daemon,
	// one heartbeat sidecar per service daemon, restart hooks that
	// recreate dead daemons in place, and standby promotion for dead
	// roster replicas.
	Ctrl bool
	// Ctrls sizes the replicated controller group (default 1 when Ctrl
	// is set; setting it above zero implies Ctrl). The controllers form
	// a sub-clique, elect the min-address leader, and fence reconcile
	// actions through the pstate epoch register. Beaters broadcast every
	// heartbeat to the whole group, so followers hold warm detector
	// state and can finish a heal the dead leader started. Controllers
	// are labelled ctrl1..N and are themselves killable via KillSpec —
	// including the dynamic "ctrl-leader" target, resolved when the kill
	// fires.
	Ctrls int
	// StandbyPStates starts additional persistent state managers OUTSIDE
	// the active quorum roster — the promotion candidates. They are
	// labelled pstate<PStates+1>... and carry no peers until promoted.
	StandbyPStates int
	// Kills schedules daemon deaths mid-run (any labelled daemon — a
	// scheduler, a Gossip, a replica). With Ctrl on and KillSpec.Restart
	// zero, healing is the controller's job.
	Kills []KillSpec
	// Logf receives progress diagnostics (defaults to discard).
	Logf func(format string, args ...any)
}

// KillSpec schedules the death of one named daemon mid-scenario.
type KillSpec struct {
	// Target is the daemon's scenario label (sched2, pstate1, g3,
	// ctrl1, ...) or the dynamic "ctrl-leader", which resolves to
	// whichever controller is the acting group leader at fire time.
	Target string
	// At is when the kill fires, measured from chaos-on.
	At time.Duration
	// Restart, when positive, recreates the daemon (same address, same
	// state directory) that long after the kill. Zero leaves the corpse
	// alone — under Ctrl the control plane notices and heals.
	Restart time.Duration
}

// ScenarioResult summarizes a chaos run.
type ScenarioResult struct {
	// Ops is the total useful work delivered by all components — the
	// paper's evaluation metric. A healthy degradation ladder keeps this
	// non-zero at SC98-floor fault rates.
	Ops int64
	// CompletedCycles counts scheduling cycles finished across all
	// components; ComponentErrs counts components that gave up early.
	CompletedCycles int
	ComponentErrs   int
	// PoolSplit and PoolMerged report the partition experiment: the
	// isolated Gossip left the pool view, then rejoined after the heal.
	PoolSplit  bool
	PoolMerged bool
	// ObsAddr is the observatory's introspection address (Obs runs only)
	// and ObsAlerts its final alert table. ObsAlertFired reports that
	// the clique-membership anomaly alert was firing while the partition
	// was open; ObsAlertQuiet that no alert was still firing once the
	// pool re-merged and the forecaster settled.
	ObsAddr       string
	ObsAlerts     []obs.Alert
	ObsAlertFired bool
	ObsAlertQuiet bool
	// Stats snapshots the injector counters at the end of the run.
	Stats Stats
	// Snapshots holds every daemon's final telemetry, fetched over the
	// wire protocol (MsgTelemetry) with a clean client once chaos stops,
	// keyed by the daemon's scenario label (g1, sched1, c1, pstate1).
	Snapshots map[string]telemetry.Snapshot
	// PStateConverged reports the durability experiment's end state:
	// after the crash, restart, isolation, and heal, every replica's
	// digest became identical.
	PStateConverged bool
	// AckedWrites counts checkpoint writes the background writer saw
	// quorum-acknowledged; LostWrites counts acked writes that at least
	// one replica could not serve at the acknowledged version after
	// convergence. The durability contract is LostWrites == 0.
	AckedWrites int
	LostWrites  int
	// PStateCrashes counts injected persist crash points that fired.
	PStateCrashes int64
	// Retries is the total wire.client.retries across all daemons — the
	// degradation ladder's visible footprint under fault injection.
	Retries int64
	// PartitionsHealed is the growth in clique.view.merge across the
	// Gossip pool relative to the pre-workload baseline (pool bootstrap
	// also merges, so the baseline subtraction is required).
	PartitionsHealed int64
	// TraceSpans holds every span the collector received (Trace runs
	// only); Traces is the same data assembled into per-trace trees.
	TraceSpans []dtrace.Span
	Traces     []*dtrace.Tree
	// CollectorAddr is the trace collector's address (Trace runs only),
	// so callers can point ew-trace at a still-running scenario.
	CollectorAddr string
	// Restarts, Promotions, Backoffs are the controller's final action
	// counters (Ctrl runs only).
	Restarts, Promotions, Backoffs int64
	// MTTRRestart is the mean detector-declared-dead-to-recovered time;
	// MTTRPromote the mean dead-to-standby-promoted time (Ctrl runs with
	// at least one such repair; zero otherwise).
	MTTRRestart, MTTRPromote time.Duration
	// LeaderFailoverMTTR is the observed control-plane takeover time
	// when a "ctrl-leader" kill fired: from closing the acting leader to
	// a surviving controller leading under a strictly higher fencing
	// epoch. Zero when no leader kill was scheduled (or never healed).
	LeaderFailoverMTTR time.Duration
	// FinalRoster is the persistent state quorum at the end of the run —
	// differs from the initial roster when a promotion fired.
	FinalRoster []string
}

func (c *ScenarioConfig) fill() {
	if c.Gossips == 0 {
		c.Gossips = 3
	}
	if c.Schedulers == 0 {
		c.Schedulers = 2
	}
	if c.Components == 0 {
		c.Components = 3
	}
	if c.Cycles == 0 {
		c.Cycles = 6
	}
	if c.PStates == 0 {
		c.PStates = 3
	}
	if c.PStateCrash {
		c.WriteLoad = true
	}
	if c.Ctrls > 0 {
		c.Ctrl = true
	}
	if c.Ctrl && c.Ctrls == 0 {
		c.Ctrls = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// retryPolicy is the degradation ladder the scenario arms every process
// with: a few bounded attempts with fast back-off (test-scaled).
func retryPolicy() *wire.RetryPolicy {
	return &wire.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// RunScenario builds the deployment, unleashes the injector, runs the
// workload (with an optional partition/heal experiment on the Gossip
// pool), and reports what survived. The injector is disabled during
// bootstrap so startup races don't mask the steady-state behaviour under
// test.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("faults: scenario requires a storage directory")
	}
	fcfg := cfg.Faults
	fcfg.Seed = cfg.Seed
	in := New(fcfg)
	in.SetEnabled(false) // clean bootstrap; chaos starts with the workload

	// Trace collector: a logsvc daemon plus one shared exporter. Like the
	// telemetry probe, the export path is an observer — it ships over a
	// clean client so chaos perturbs the traced calls, not the records of
	// them — while the traced daemons themselves stay fully injected.
	var collectorAddr string
	var exporter *dtrace.Exporter
	tracerFor := func(label string) wire.Tracer { return nil }
	if cfg.Trace {
		ls, err := core.StartDaemon(logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0", Transport: cfg.Transport}))
		if err != nil {
			return nil, err
		}
		defer ls.Close()
		collectorAddr = ls.Addr()
		in.RegisterName(collectorAddr, "logd")
		expClient := wire.NewClient(time.Second)
		expClient.Transport = cfg.Transport
		defer expClient.Close()
		exporter = dtrace.NewExporter(dtrace.ExporterConfig{
			Client: expClient,
			Addr:   collectorAddr,
		})
		tracerFor = func(label string) wire.Tracer {
			return dtrace.New(dtrace.Config{
				Service: label,
				Sink:    exporter,
			})
		}
	}

	// The fleet is one core.MemberTable: every daemon is a row holding the
	// closure that starts it, so boot, KillSpec restarts, the durability
	// experiment's restart and the controllers' restart hook all run the
	// same configuration. The closures below carry what is the scenario's
	// own — the injected dialer, the retry ladder, the tracer, the crash
	// hook, the chaos-tuned intervals.
	fleet := new(core.MemberTable)
	defer fleet.Close()
	add := func(label, role string, start core.StartFunc) error {
		addr, err := fleet.Add(label, role, start)
		if err == nil {
			in.RegisterName(addr, label)
		}
		return err
	}

	// Persistent state manager replicas. Each stores under its own
	// subdirectory and anti-entropies against its siblings through an
	// injected dialer (repair traffic rides the same chaotic network as
	// everything else). Only the first PStates managers form the active
	// quorum roster; standbys carry no peers until the controller promotes
	// one. When the durability experiment is on, pstate2 carries a
	// crash-point hook armed mid-run.
	var crasher *Crasher
	if cfg.PStateCrash {
		crasher = NewCrasher(cfg.Seed, "pstate2", 0, 0)
	}
	roster := func() []string {
		addrs := fleet.Addrs(ctrl.RolePState)
		return addrs[:min(len(addrs), cfg.PStates)]
	}
	for i := 0; i < cfg.PStates+cfg.StandbyPStates; i++ {
		label := fmt.Sprintf("pstate%d", i+1)
		err := add(label, ctrl.RolePState, func(listen string) (core.Daemon, error) {
			scfg := pstate.ServerConfig{
				ListenAddr:   listen,
				Dir:          filepath.Join(cfg.Dir, label),
				SyncInterval: 60 * time.Millisecond,
				Transport:    cfg.Transport,
				Dialer:       in.DialerOn(cfg.Transport, label),
				Retry:        retryPolicy(),
				Tracer:       tracerFor(label),
			}
			if i < cfg.PStates {
				scfg.Peers = core.Without(roster(), listen)
			}
			if crasher != nil && i == 1 {
				scfg.CrashPoints = crasher.Hook()
			}
			return core.StartDaemon(pstate.NewServer(scfg))
		})
		if err != nil {
			return nil, err
		}
	}
	psAddrs, rosterAddrs := fleet.Addrs(ctrl.RolePState), roster()
	// A replica booted knowing only the siblings bound before it.
	for _, ps := range core.Daemons[*pstate.Server](fleet, ctrl.RolePState)[:cfg.PStates] {
		ps.SetPeers(core.Without(rosterAddrs, ps.Addr()))
	}

	// Scheduling servers.
	for i := 0; i < cfg.Schedulers; i++ {
		label := fmt.Sprintf("sched%d", i+1)
		err := add(label, ctrl.RoleSched, func(listen string) (core.Daemon, error) {
			return core.StartDaemon(sched.NewServer(sched.ServerConfig{
				ListenAddr:   listen,
				DefaultSteps: 400,
				Transport:    cfg.Transport,
				Tracer:       tracerFor(label),
				LogAddr:      collectorAddr,
			}), nil)
		})
		if err != nil {
			return nil, err
		}
	}
	schedAddrs := fleet.Addrs(ctrl.RoleSched)

	// Gossip pool: g1 is the well-known member; the rest join through it,
	// and a restarted member rejoins through all the others. All pool and
	// component traffic dials through the injector.
	for i := 0; i < cfg.Gossips; i++ {
		label := fmt.Sprintf("g%d", i+1)
		err := add(label, ctrl.RoleGossip, func(listen string) (core.Daemon, error) {
			return core.StartDaemon(gossip.NewServer(gossip.ServerConfig{
				ListenAddr:   listen,
				WellKnown:    core.Without(fleet.Addrs(ctrl.RoleGossip), listen),
				SyncInterval: 40 * time.Millisecond,
				Heartbeat:    25 * time.Millisecond,
				MaxFailures:  20,
				// Short calls keep the clique snappy: TokenTimeout floors at
				// 2x this, so partition detection and re-merge stay sub-second
				// even when injected faults stall individual token hops.
				CallTimeout: 250 * time.Millisecond,
				Transport:   cfg.Transport,
				Dialer:      in.DialerOn(cfg.Transport, label),
				Retry:       retryPolicy(),
				Tracer:      tracerFor(label),
			}), nil)
		})
		if err != nil {
			return nil, err
		}
	}
	gossipAddrs := fleet.Addrs(ctrl.RoleGossip)
	// gossips reads the pool's current incarnations: a restart swaps them.
	gossips := func() []*gossip.Server { return core.Daemons[*gossip.Server](fleet, ctrl.RoleGossip) }
	poolWhole := func() bool {
		for _, g := range gossips() {
			if len(g.PoolView().Members) != cfg.Gossips {
				return false
			}
		}
		return true
	}
	if !waitFor(15*time.Second, poolWhole) {
		for i, g := range gossips() {
			cfg.Logf("gossip %d view=%+v", i+1, g.PoolView())
		}
		return nil, fmt.Errorf("faults: gossip pool never formed")
	}
	cfg.Logf("pool formed: %d gossips, %d schedulers", cfg.Gossips, cfg.Schedulers)

	// The probe client dials directly (no injector) — introspection is an
	// observer, not a chaos participant.
	probe := wire.NewClient(2 * time.Second)
	probe.Transport = cfg.Transport
	defer probe.Close()

	// Self-healing control plane: every controller in the group ingests
	// the broadcast beater heartbeats from every daemon; the elected,
	// epoch-fenced leader restarts the dead through the member table and
	// promotes a standby when a roster replica dies. Beats ride a clean
	// transport — attestation is an observer; the failure signal is the
	// daemon itself going silent, not injected packet loss.
	ctrls := func() []*ctrl.Server { return core.Daemons[*ctrl.Server](fleet, ctrl.RoleCtrl) }
	// ctrlLeader resolves the ACTING leader — elected and holding a
	// fencing epoch, so its reconcile actions count — among the
	// controllers the harness has not killed. The epoch requirement skips
	// a transient singleton "leader" that won its own partition but cannot
	// fence.
	ctrlLeader := func() (string, *ctrl.Server) {
		for _, e := range fleet.Entries(ctrl.RoleCtrl) {
			if cs := e.Daemon.(*ctrl.Server); e.Up && cs.Role() == ctrl.CtrlLeader && cs.Epoch() > 0 {
				return e.ID, cs
			}
		}
		return "", nil
	}
	// sumCtrl totals a counter across every controller handle, dead or
	// alive — a repair performed by a since-killed leader still counts.
	sumCtrl := func(name string) int64 {
		var tot int64
		for _, cs := range ctrls() {
			tot += cs.Metrics().Snapshot(name).Value(name)
		}
		return tot
	}
	if cfg.Ctrl {
		for i := 0; i < cfg.Ctrls; i++ {
			label := fmt.Sprintf("ctrl%d", i+1)
			err := add(label, ctrl.RoleCtrl, func(listen string) (core.Daemon, error) {
				return core.StartDaemon(ctrl.NewServer(ctrl.ServerConfig{
					ListenAddr:  listen,
					Transport:   cfg.Transport,
					ID:          label,
					Interval:    50 * time.Millisecond,
					CallTimeout: 500 * time.Millisecond,
					// The token timeout is 4x this. The compute workload starves
					// goroutines for long stretches under -race, and a too-tight
					// timeout makes the controller clique flap into singleton
					// views that churn fencing epochs; 100ms keeps takeover
					// sub-second while riding out scheduling hiccups.
					ElectionInterval: 100 * time.Millisecond,
					Grouped:          cfg.Ctrls > 1,
					// The compute components are CPU-hungry enough (Ramsey search
					// on every core, worse under -race) to starve beater goroutines
					// well past the tight statistical bound; a generous floor keeps
					// scheduling hiccups from reading as mass death.
					Detector: ctrl.DetectorConfig{Floor: 2 * time.Second},
					Gossips:  gossipAddrs,
					PStates:  rosterAddrs,
					Logf:     cfg.Logf,
					Restart:  func(m ctrl.Member) error { return fleet.Restart(m.ID) },
				}))
			})
			if err != nil {
				return nil, fmt.Errorf("faults: controller: %w", err)
			}
		}
		fleetSize := int64(len(fleet.Entries("")) - cfg.Ctrls)
		fleet.Shadow(40*time.Millisecond, cfg.Transport)
		// Hold the run until the group has a leader and every member has
		// attested to it at least once: the controller cannot heal a
		// daemon it never met, and the workload's CPU appetite throttles
		// beaters hard enough that an early kill could otherwise outrun a
		// member's first heartbeat.
		attested := waitFor(15*time.Second, func() bool {
			_, cs := ctrlLeader()
			if cs == nil {
				return false
			}
			st, err := ctrl.FetchStatus(probe, cs.Addr(), time.Second)
			return err == nil && st.Live >= fleetSize
		})
		if !attested {
			return nil, fmt.Errorf("faults: fleet never fully attested to the controller")
		}
		cfg.Logf("fleet attested: %d members live across %d controllers", fleetSize, cfg.Ctrls)
	}

	// Compute components.
	comps := make([]*core.Component, 0, cfg.Components)
	for i := 0; i < cfg.Components; i++ {
		label := fmt.Sprintf("c%d", i+1)
		comp := core.NewComponent(core.ComponentConfig{
			ID:                 label,
			Infra:              "chaos",
			Schedulers:         schedAddrs,
			Gossips:            gossipAddrs,
			PStates:            append([]string(nil), rosterAddrs...),
			Transport:          cfg.Transport,
			Dialer:             in.DialerOn(cfg.Transport, label),
			Retry:              retryPolicy(),
			MaxServiceFailures: 3,
			ServiceCooldown:    200 * time.Millisecond,
			WorkCheckpointKey:  "chaos/work/" + label,
			Tracer:             tracerFor(label),
		})
		addr, err := comp.Start()
		if err != nil {
			return nil, err
		}
		defer comp.Close()
		in.RegisterName(addr, label)
		comps = append(comps, comp)
	}

	// Grid Observatory: scrape every daemon in the scenario on a fast
	// cadence and watch the clique membership gauge with the
	// forecast-anomaly rule. Scraping is an observer like the probe — it
	// rides the clean transport so chaos perturbs the fleet, not the
	// instruments watching it.
	var obsSrv *obs.Server
	var obsAddr string
	if cfg.Obs {
		targets := append([]string(nil), psAddrs...)
		targets = append(targets, schedAddrs...)
		targets = append(targets, gossipAddrs...)
		for _, comp := range comps {
			targets = append(targets, comp.Addr())
		}
		obsSrv = obs.New(obs.Config{
			Name:       "obs",
			ListenAddr: "127.0.0.1:0",
			Transport:  cfg.Transport,
			Silent:     true,
			Interval:   40 * time.Millisecond,
			Targets:    targets,
			Rules: []obs.Rule{{
				Name: "clique-anomaly", Kind: obs.RuleAnomaly,
				Metric: "clique.members", Daemon: "g", Role: "gossip",
				Tolerance: 0.5, MinSamples: 5, For: 2, ClearAfter: 2,
			}},
		})
		var err error
		if obsAddr, err = obsSrv.Start(); err != nil {
			return nil, fmt.Errorf("faults: observatory: %w", err)
		}
		defer obsSrv.Close()
		in.RegisterName(obsAddr, "obs")
		cfg.Logf("observatory scraping %d targets at %s", len(targets), obsAddr)
		// Train the anomaly detector on the healthy pool before the chaos
		// starts: the first scrape round pays 1 dial per target on a busy
		// box, and the partition experiment opens almost immediately after
		// chaos-on. Without this gate the observatory's first gossip
		// samples can postdate the clique collapse, leaving the forecaster
		// warmed up on the degraded view — no anomaly left to detect. A
		// real observatory has scrape history long before the incident.
		warmed := waitFor(10*time.Second, func() bool {
			for _, addr := range gossipAddrs {
				k := obs.SeriesKey{Daemon: "gossip@" + addr, Metric: "clique.members"}
				if len(obsSrv.Series().Get(k)) < 8 {
					return false
				}
			}
			return true
		})
		cfg.Logf("observatory warmed on healthy pool=%v", warmed)
	}

	// Telemetry baseline: pool bootstrap already produced clique merges, so
	// the partition experiment must count merge growth, not the absolute
	// counter.
	baselineMerges := make(map[string]int64, len(gossipAddrs))
	for _, addr := range gossipAddrs {
		if s, err := wire.FetchSnapshot(probe, addr, "clique.", time.Second); err == nil {
			baselineMerges[addr] = s.Value("clique.view.merge")
		}
	}

	// Chaos on. Run the workload.
	in.SetEnabled(true)
	res := &ScenarioResult{}

	// Scheduled kills: each fires At after chaos-on and resolves its
	// target through the member table. A positive Restart has the harness
	// resurrect the daemon itself; zero leaves the corpse for the control
	// plane (or permanently dead in a no-Ctrl run). The "ctrl-leader"
	// target is dynamic — resolved when the kill fires, it takes down
	// whichever controller is leading right then and times the group's
	// recovery to a successor under a strictly higher epoch.
	var killWG sync.WaitGroup
	var failoverNanos atomic.Int64
	for _, k := range cfg.Kills {
		leaderKill := k.Target == "ctrl-leader"
		if leaderKill && !cfg.Ctrl {
			return nil, fmt.Errorf("faults: kill target %q requires the control plane", k.Target)
		}
		if _, ok := fleet.Get(k.Target); !ok && !leaderKill {
			return nil, fmt.Errorf("faults: kill target %q is not a registered daemon", k.Target)
		}
		killWG.Add(1)
		go func() {
			defer killWG.Done()
			time.Sleep(k.At)
			target := k.Target
			var epoch0 uint64
			if leaderKill {
				var victim *ctrl.Server
				if !waitFor(10*time.Second, func() bool {
					target, victim = ctrlLeader()
					return victim != nil
				}) {
					cfg.Logf("ctrl-leader kill: no acting leader to kill")
					return
				}
				epoch0 = victim.Epoch()
			}
			start := time.Now()
			fleet.Kill(target)
			cfg.Logf("killed %s", target)
			if leaderKill {
				if waitFor(20*time.Second, func() bool {
					_, nl := ctrlLeader()
					return nl != nil && nl.Epoch() > epoch0
				}) {
					failoverNanos.Store(int64(time.Since(start)))
					cfg.Logf("leader failover: successor fenced in %v (past epoch %d)", time.Since(start), epoch0)
				} else {
					cfg.Logf("leader failover: no successor fenced a higher epoch")
				}
			}
			if k.Restart > 0 {
				time.Sleep(k.Restart)
				if err := fleet.Restart(target); err != nil {
					cfg.Logf("restart %s: %v", target, err)
				} else {
					cfg.Logf("restarted %s", target)
				}
			}
		}()
	}

	// Durability writer: quorum-writes checkpoints continuously through
	// its own injected client and records which writes were acknowledged
	// (quorum reached — spooled writes are explicitly NOT acked). The
	// post-run assertion is that every acked write survives the crash,
	// restart, and partition on every replica.
	var ackedMu sync.Mutex
	acked := make(map[string]uint64) // name -> highest acked version
	writerStop := make(chan struct{})
	var writerWG sync.WaitGroup
	if cfg.WriteLoad {
		wcW := wire.NewClient(500 * time.Millisecond)
		wcW.Dialer = in.DialerOn(cfg.Transport, "cw")
		wcW.Retry = retryPolicy()
		defer wcW.Close()
		rs, err := pstate.NewReplicaSet(wcW, pstate.ReplicaSetConfig{
			Addrs:   rosterAddrs,
			Timeout: 500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for seq := 0; ; seq++ {
				select {
				case <-writerStop:
					return
				default:
				}
				// Follow the control plane's roster: after a promotion the
				// quorum writes land on the promoted standby, not the
				// corpse. Only the acting leader's roster is authoritative
				// — followers adopt the durable roster when they take over.
				if cfg.Ctrl && seq%16 == 0 {
					if _, cs := ctrlLeader(); cs != nil {
						rs.SetAddrs(cs.Roster())
					}
				}
				name := fmt.Sprintf("chaos/ckpt/%d", seq%8)
				payload := []byte(fmt.Sprintf("seq=%d", seq))
				if ver, err := rs.Store(name, "ckpt", payload); err == nil {
					ackedMu.Lock()
					if ver > acked[name] {
						acked[name] = ver
					}
					ackedMu.Unlock()
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	var cycles, errs atomic.Int64
	var wg sync.WaitGroup
	for _, comp := range comps {
		wg.Add(1)
		go func(comp *core.Component) {
			defer wg.Done()
			done := 0
			for done < cfg.Cycles {
				n, err := comp.RunCycles(1)
				done += n
				cycles.Add(int64(n))
				if err != nil {
					// Every scheduler looked dead this cycle: back off,
					// clear the dead marks, and keep trying for the full
					// budget — graceful degradation, not abandonment.
					errs.Add(1)
					time.Sleep(50 * time.Millisecond)
					comp.Runner().Health().Reset()
				}
				if comp.Runner().Stopped() {
					break
				}
			}
		}(comp)
	}

	// Fail-over forcing: cut the first scheduler off mid-workload so
	// in-flight reports exhaust their retry ladder against it (every
	// attempt a recorded child span) and land on the alternate (the
	// fail-over hop). Healed before the partition experiment so the two
	// cuts never overlap.
	if cfg.SchedOutage && cfg.Schedulers >= 2 {
		time.Sleep(30 * time.Millisecond) // let some clean-path reports land first
		failovers := func() (n int64) {
			for _, comp := range comps {
				n += comp.Metrics().Counter("sched.client.failover").Value()
			}
			return n
		}
		before := failovers()
		in.Isolate("sched1")
		cfg.Logf("isolated sched1")
		// Hold the cut until a report has actually failed over: a fixed
		// outage sometimes falls between two reports and sees none.
		forced := waitFor(5*time.Second, func() bool { return failovers() > before })
		in.Heal()
		cfg.Logf("healed sched1 (fail-over forced=%v)", forced)
	}

	// Partition experiment: cut the last Gossip off from its pool peers
	// while the workload runs, then heal and require a re-merge.
	if cfg.PartitionHeal && cfg.Gossips >= 2 {
		last := fmt.Sprintf("g%d", cfg.Gossips)
		rest := make([]string, 0, cfg.Gossips-1)
		for i := 1; i < cfg.Gossips; i++ {
			rest = append(rest, fmt.Sprintf("g%d", i))
		}
		if obsSrv != nil {
			for _, k := range obsSrv.Series().Keys() {
				if k.Metric == "clique.members" {
					pts := obsSrv.Series().Get(k)
					if len(pts) > 8 {
						pts = pts[len(pts)-8:]
					}
					cfg.Logf("  pre-partition series %s tail = %v", k.Daemon, pts)
				}
			}
		}
		in.Partition([]string{last}, rest)
		cfg.Logf("partitioned %s from %v", last, rest)
		res.PoolSplit = waitFor(10*time.Second, func() bool {
			gs := gossips()
			return len(gs[cfg.Gossips-1].PoolView().Members) == 1 &&
				len(gs[0].PoolView().Members) == cfg.Gossips-1
		})
		// The observatory must see the incident: the isolated Gossip's
		// clique.members collapsed, a prediction-error burst against a
		// forecaster trained on the stable pool, so the anomaly alert
		// fires while the cut is open. The check reads the lifetime fire
		// counter, not the live firing bit — the winsorized forecaster
		// adapts to a sustained shift, so a fast detector may have fired
		// and self-cleared before the clique even confirms the split.
		if obsSrv != nil {
			res.ObsAlertFired = waitFor(10*time.Second, func() bool {
				for _, al := range obsSrv.Alerts() {
					if al.Role == "gossip" && al.Fires > 0 {
						return true
					}
				}
				return false
			})
			cfg.Logf("observatory anomaly alert fired=%v", res.ObsAlertFired)
		}
		in.Heal()
		cfg.Logf("healed partition")
		res.PoolMerged = waitFor(15*time.Second, poolWhole)
		// After the heal the membership gauge is back at pool size; the
		// forecaster re-adapts (the heal jump itself may fire briefly)
		// and the alert table must end quiet.
		if obsSrv != nil {
			res.ObsAlertQuiet = waitFor(15*time.Second, func() bool {
				return obsSrv.Firing("") == 0
			})
			cfg.Logf("observatory quiet after heal=%v", res.ObsAlertQuiet)
		}
		// Rejoin path: components re-register their tracked keys now that
		// the pool is whole again.
		for _, comp := range comps {
			comp.Reregister()
		}
	}

	// Durability experiment: crash pstate2 mid-persist leaving torn
	// debris at the live object name, kill the daemon, restart it from
	// the same data directory and address (the recovery scan must
	// quarantine the torn file), then make the last replica stale by
	// isolating it while acked writes continue, and heal.
	if cfg.PStateCrash && cfg.PStates >= 2 {
		crasher.ArmOnce(pstate.CrashTornFinal)
		if !waitFor(10*time.Second, func() bool { return crasher.Crashes() >= 1 }) {
			cfg.Logf("pstate2 crash point never fired")
		}
		if err := fleet.Restart("pstate2"); err != nil {
			return nil, fmt.Errorf("faults: pstate2 restart: %w", err)
		}
		cfg.Logf("killed pstate2 (%s) after torn-write crash and restarted it from its data directory", psAddrs[1])
		if cfg.PStates >= 3 {
			stale := fmt.Sprintf("pstate%d", cfg.PStates)
			in.Isolate(stale)
			cfg.Logf("isolated %s", stale)
			// Let acked writes accumulate that the isolated replica
			// cannot see — anti-entropy must repair them after the heal.
			time.Sleep(400 * time.Millisecond)
			in.Heal()
			cfg.Logf("healed %s", stale)
		}
	}

	wg.Wait()
	killWG.Wait()
	// Heal wait: with the control plane on, hold the run open (the writer
	// still pounding, chaos still armed) until the controller reports no
	// dead members — restarts finished, promotions absorbed, quorum
	// writes landing on the final roster.
	if cfg.Ctrl && len(cfg.Kills) > 0 {
		// A kill the harness does not undo must be healed by the
		// controller: a roster replica by standby promotion (when a
		// standby exists), everything else by restart-in-place. Requiring
		// the action counters — not just Dead == 0 — keeps the wait
		// honest when the detector has not yet noticed a fresh corpse.
		// A dead controller is healed by election, not by the reconcile
		// loop, so ctrl kills count toward neither; the failover
		// measurement above covers them. The wait polls whoever leads
		// NOW — after a leader kill that is the successor — and sums the
		// action counters across all controller handles, because the
		// repairs may be split between a dead leader and its heir.
		var wantRestarts, wantPromotes int64
		for _, k := range cfg.Kills {
			if k.Restart > 0 || strings.HasPrefix(k.Target, "ctrl") {
				continue
			}
			if e, _ := fleet.Get(k.Target); cfg.StandbyPStates > 0 && slices.Contains(rosterAddrs, e.Addr) {
				wantPromotes++
			} else {
				wantRestarts++
			}
		}
		healed := waitFor(20*time.Second, func() bool {
			_, cs := ctrlLeader()
			if cs == nil {
				return false
			}
			st, err := ctrl.FetchStatus(probe, cs.Addr(), time.Second)
			return err == nil && st.Dead == 0 &&
				sumCtrl("ctrl.restarts") >= wantRestarts &&
				sumCtrl("ctrl.promotions") >= wantPromotes
		})
		cfg.Logf("heal wait: healed=%v", healed)
		// Let the roster-following writer land a few post-heal acks.
		time.Sleep(200 * time.Millisecond)
	}
	close(writerStop)
	writerWG.Wait()
	for _, comp := range comps {
		if r := comp.Runner(); r != nil {
			res.Ops += r.Ops().Total()
		}
	}
	res.CompletedCycles = int(cycles.Load())
	res.ComponentErrs = int(errs.Load())
	res.Stats = in.Stats()

	// Final telemetry sweep with chaos off: what did the run look like
	// from each daemon's own instruments?
	in.SetEnabled(false)

	// Trace harvest: flush the exporter's final batch, then pull every
	// span back from the collector and assemble the trees.
	if cfg.Trace {
		exporter.Close()
		res.CollectorAddr = collectorAddr
		spans, err := dtrace.Fetch(probe, collectorAddr, 0, 0, 2*time.Second)
		if err != nil {
			cfg.Logf("trace fetch: %v", err)
		} else {
			res.TraceSpans = spans
			res.Traces = dtrace.BuildTrees(spans)
			cfg.Logf("traces: %d spans in %d traces", len(spans), len(res.Traces))
		}
	}

	// Durability verdict: drive anti-entropy until every replica's digest
	// is identical, then check each acked write against each replica
	// individually — durable means any single surviving replica can serve
	// it at (or past) the acknowledged version.
	if cfg.WriteLoad {
		if crasher != nil {
			res.PStateCrashes = crasher.Crashes()
		}
		// The verdict runs over the FINAL roster: the controller's view
		// when a promotion may have fired, the initial quorum otherwise.
		// Forced sync rounds ride the wire protocol, addressed by roster
		// entry, so a promoted standby participates like any replica.
		finalAddrs := append([]string(nil), rosterAddrs...)
		if cfg.Ctrl {
			if _, cs := ctrlLeader(); cs != nil {
				finalAddrs = cs.Roster()
			}
		}
		res.FinalRoster = append([]string(nil), finalAddrs...)
		res.PStateConverged = waitFor(15*time.Second, func() bool {
			for _, addr := range finalAddrs {
				pstate.SyncNowAt(probe, addr, time.Second)
			}
			var ref []pstate.DigestEntry
			for i, addr := range finalAddrs {
				dig, err := pstate.FetchDigest(probe, addr, time.Second)
				if err != nil {
					return false
				}
				if i == 0 {
					ref = dig
				} else if !pstate.DigestsEqual(ref, dig) {
					return false
				}
			}
			return true
		})
		ackedMu.Lock()
		res.AckedWrites = len(acked)
		for name, ver := range acked {
			for _, addr := range finalAddrs {
				o, found, err := pstate.PullObject(probe, addr, name, time.Second)
				if err != nil || !found || o.Tombstone || o.Version < ver {
					res.LostWrites++
					cfg.Logf("lost write: %q v%d missing from %s (found=%v err=%v)",
						name, ver, addr, found, err)
					break
				}
			}
		}
		ackedMu.Unlock()
		cfg.Logf("durability: converged=%v acked=%d lost=%d crashes=%d roster=%v",
			res.PStateConverged, res.AckedWrites, res.LostWrites, res.PStateCrashes, finalAddrs)
	}
	res.Snapshots = make(map[string]telemetry.Snapshot)
	collect := func(label, addr string) {
		if s, err := wire.FetchSnapshot(probe, addr, "", time.Second); err == nil {
			res.Snapshots[label] = s
		} else {
			cfg.Logf("telemetry fetch %s (%s): %v", label, addr, err)
		}
	}
	for _, e := range fleet.Entries("") {
		if e.Up { // a corpse the harness made has nothing to say
			collect(e.ID, e.Addr)
		}
	}
	for i, comp := range comps {
		collect(fmt.Sprintf("c%d", i+1), comp.Addr())
	}
	if cfg.Ctrl {
		// Action counters sum across the whole group (a since-killed
		// leader's repairs still happened); the MTTR histograms live on
		// whichever controller performed the repair, so take the largest
		// per-controller mean rather than averaging in idle followers.
		res.Restarts = sumCtrl("ctrl.restarts")
		res.Promotions = sumCtrl("ctrl.promotions")
		res.Backoffs = sumCtrl("ctrl.backoffs")
		res.LeaderFailoverMTTR = time.Duration(failoverNanos.Load())
		meanAcross := func(name string) time.Duration {
			var best time.Duration
			for _, cs := range ctrls() {
				if sm, ok := cs.Metrics().Snapshot(name).Find(name); ok {
					if m := sm.Hist.Mean(); m > best {
						best = m
					}
				}
			}
			return best
		}
		res.MTTRRestart = meanAcross("ctrl.mttr")
		res.MTTRPromote = meanAcross("ctrl.mttr.promote")
		if res.FinalRoster == nil {
			if _, cs := ctrlLeader(); cs != nil {
				res.FinalRoster = cs.Roster()
			}
		}
	}
	if obsSrv != nil {
		res.ObsAddr = obsAddr
		res.ObsAlerts = obsSrv.Alerts()
		collect("obs", obsAddr)
	}
	res.Retries = telemetry.SumCounter(res.Snapshots, "wire.client.retries")
	for _, e := range fleet.Entries(ctrl.RoleGossip) {
		if s, ok := res.Snapshots[e.ID]; ok {
			res.PartitionsHealed += s.Value("clique.view.merge") - baselineMerges[e.Addr]
		}
	}
	cfg.Logf("scenario done: ops=%d cycles=%d errs=%d stats=%+v",
		res.Ops, res.CompletedCycles, res.ComponentErrs, res.Stats)
	return res, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
