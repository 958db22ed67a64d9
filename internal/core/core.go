// Package core is the EveryWare toolkit facade: it assembles the three
// toolkit components — the lingua franca (everyware/internal/wire), the
// forecasting services (everyware/internal/forecast), and the distributed
// state exchange service (everyware/internal/gossip) — together with the
// application-specific services (scheduling, persistent state, logging)
// into deployable application components, exactly as Figure 1 of the paper
// wires them.
//
// The paper classifies program state three ways (section 3.1.2); the
// toolkit reflects the taxonomy directly:
//
//   - local state lives in ordinary process memory and may be lost;
//   - volatile-but-replicated state is published through the Gossip
//     service (Component.Publish / OnReplicated);
//   - persistent state is check-pointed through the persistent state
//     managers, which validate it before storing
//     (Component.Checkpoint).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/forecast"
	"everyware/internal/gossip"
	"everyware/internal/logsvc"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/sched"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// CounterExampleClass is the persistent-state object class for Ramsey
// counter-examples. The class validator re-verifies every stored witness —
// the paper's run-time sanity check.
const CounterExampleClass = "ramsey/counterexample"

// BestStateKey is the Gossip key under which components replicate the best
// counter-example found so far.
const BestStateKey = "ramsey/best"

// SchedulerRosterKey is the Gossip key under which scheduler birth and
// death information circulates (section 5.4 of the paper): clients learn
// the currently viable scheduling servers from the Gossip service instead
// of a static list. Its value is a ctrl.EncodeRoster address list, the
// codec the pstate roster also rides.
const SchedulerRosterKey = "everyware/schedulers"

func init() {
	err := pstate.RegisterValidator(CounterExampleClass, func(name string, data []byte) error {
		ce, err := ramsey.DecodeCounterExample(data)
		if err != nil {
			return fmt.Errorf("core: undecodable counter-example: %w", err)
		}
		return ce.Verify()
	})
	if err != nil {
		panic(err)
	}
}

// ComponentConfig wires one application component into the EveryWare
// services.
type ComponentConfig struct {
	// ID uniquely identifies the component (defaults to its bound
	// address).
	ID string
	// Infra labels the hosting infrastructure for the evaluation
	// breakdown ("unix", "condor", ...).
	Infra string
	// ListenAddr is the component's lingua franca bind address (":0"
	// works).
	ListenAddr string
	// Schedulers, Gossips, PStates and LogServers list the service
	// addresses. Schedulers is required for compute components; the rest
	// are optional.
	Schedulers []string
	Gossips    []string
	PStates    []string
	LogServers []string
	// SampleEdges bounds heuristic step cost (passed to the searcher).
	SampleEdges int
	// CallTimeout bounds service calls (default 2s; report time-outs are
	// discovered dynamically regardless).
	CallTimeout time.Duration
	// Transport selects the wire substrate for the component's listener
	// and dials (nil = TCP).
	Transport wire.Transport
	// Dialer overrides how outbound connections are opened (fault
	// injection, tests). Nil means dialling over Transport.
	Dialer wire.DialFunc
	// Retry, if set, governs the component's retransmission policy:
	// bounded attempts with forecast-driven back-off, never blindly
	// resending non-idempotent requests.
	Retry *wire.RetryPolicy
	// MaxServiceFailures marks a Gossip or persistent state manager dead
	// after this many consecutive call failures (default 3); dead services
	// are skipped while an alternative is alive and re-probed after
	// ServiceCooldown.
	MaxServiceFailures int
	// ServiceCooldown is how long a dead service address is skipped
	// (default 10s).
	ServiceCooldown time.Duration
	// WorkCheckpointKey, if set, replicates the client's in-progress work
	// unit through the Gossip service after every cycle — the
	// volatile-but-replicated checkpointing that let Condor-hosted
	// clients survive vanilla-universe kills (section 5.4). Components
	// sharing a key form a restart group: a new component can resume the
	// last replicated unit via ResumeFromCheckpoint.
	WorkCheckpointKey string
	// EliteShareKey, if set, replicates the client's best in-progress
	// coloring through the Gossip service and adopts a substantially
	// fitter replicated elite — the pool-wide pruning cooperation of
	// section 3 ("processes communicate and synchronize as they prune the
	// search space").
	EliteShareKey string
	// Metrics, if set, is the component's shared telemetry registry (a
	// fresh one is created otherwise); the server, client, health tracker,
	// and scheduling runner all report into it.
	Metrics *telemetry.Registry
	// Tracer, if set, records causal traces: each scheduling report and
	// each checkpoint roots a trace whose tree spans the wire client's
	// retry/fail-over attempts, the remote scheduler's decision, and the
	// per-replica quorum writes. Nil disables.
	Tracer wire.Tracer
}

// Component is one EveryWare application process: a lingua franca server,
// a Gossip agent, a scheduling runner, and clients for the persistent
// state and logging services.
type Component struct {
	cfg       ComponentConfig
	svc       *wire.Service
	srv       *wire.Server
	client    *wire.Client
	agent     *gossip.Agent
	runner    *sched.Runner
	forecasts *forecast.Registry
	health    *wire.HealthTracker
	metrics   *telemetry.Registry
	replicas  *pstate.ReplicaSet
	addr      string

	mu      sync.Mutex
	started bool
	bestN   int
	tracked map[string]string // Gossip key -> comparator name, for rejoin
}

// NewComponent constructs an unstarted component.
func NewComponent(cfg ComponentConfig) *Component {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	svc := wire.NewService(wire.ServiceConfig{
		ListenAddr:  cfg.ListenAddr,
		Transport:   cfg.Transport,
		Metrics:     cfg.Metrics,
		DialTimeout: cfg.CallTimeout,
		Dialer:      cfg.Dialer,
		Retry:       cfg.Retry,
		Silent:      true,
		Tracer:      cfg.Tracer,
	})
	c := &Component{
		cfg:       cfg,
		svc:       svc,
		srv:       svc.Server(),
		client:    svc.Client(),
		forecasts: forecast.NewRegistry(),
		health:    wire.NewHealthTracker(cfg.MaxServiceFailures, cfg.ServiceCooldown),
		tracked:   make(map[string]string),
	}
	c.metrics = svc.Metrics()
	c.health.Metrics = c.metrics
	if len(cfg.PStates) > 0 {
		rs, err := pstate.NewReplicaSet(c.client, pstate.ReplicaSetConfig{
			Addrs:   cfg.PStates,
			Timeout: cfg.CallTimeout,
			Health:  c.health,
			Metrics: c.metrics,
			Tracer:  cfg.Tracer,
		})
		if err == nil {
			c.replicas = rs
		}
	}
	return c
}

// Metrics returns the component's telemetry registry.
func (c *Component) Metrics() *telemetry.Registry { return c.metrics }

// Start binds the component's server, joins the Gossip service, and
// prepares the scheduling runner. It returns the component's address.
func (c *Component) Start() (string, error) {
	addr, err := c.svc.Start()
	if err != nil {
		return "", err
	}
	c.addr = addr
	if c.cfg.ID == "" {
		c.cfg.ID = addr
	}
	if c.metrics.ID() == "" {
		c.metrics.SetID(c.cfg.ID)
	}
	c.agent = gossip.NewAgent(c.srv, addr)
	if err := c.agent.Track(BestStateKey, ramsey.BestComparator, nil); err != nil {
		return "", err
	}
	c.registerKey(BestStateKey, ramsey.BestComparator)
	if c.replicas != nil {
		// Subscribe to the persistent state roster the control plane
		// republishes after a standby promotion: the quorum client follows
		// the active membership without a restart, the same way scheduler
		// birth/death circulates below.
		err := c.OnReplicated(ctrl.PStateRosterKey, gossip.CmpCounter, func(s gossip.Stamped) {
			if roster, err := ctrl.DecodeRoster(s.Data); err == nil && len(roster) > 0 {
				c.replicas.SetAddrs(roster)
			}
		})
		if err != nil && len(c.cfg.Gossips) > 0 {
			return "", err
		}
	}
	if len(c.cfg.Schedulers) > 0 {
		runner, err := sched.NewRunner(sched.RunnerConfig{
			ClientID:             c.cfg.ID,
			Infra:                c.cfg.Infra,
			Schedulers:           c.cfg.Schedulers,
			SampleEdges:          c.cfg.SampleEdges,
			OnFound:              c.onFound,
			MaxSchedulerFailures: c.cfg.MaxServiceFailures,
			SchedulerCooldown:    c.cfg.ServiceCooldown,
			Metrics:              c.metrics,
			Tracer:               c.cfg.Tracer,
		}, c.client)
		if err != nil {
			return "", err
		}
		c.runner = runner
		// Subscribe to scheduler birth/death circulated via Gossip: a
		// fresher roster replaces the static list.
		err = c.OnReplicated(SchedulerRosterKey, gossip.CmpCounter, func(s gossip.Stamped) {
			if roster, err := ctrl.DecodeRoster(s.Data); err == nil && len(roster) > 0 {
				runner.SetSchedulers(roster)
			}
		})
		if err != nil && len(c.cfg.Gossips) > 0 {
			return "", err
		}
		// Subscribe to the scheduler ring: once a ring arrives, reports
		// route to the shard owning this client's key instead of walking
		// the flat roster.
		err = c.OnReplicated(scale.RingKey, gossip.CmpCounter, func(s gossip.Stamped) {
			if ring, err := scale.DecodeRing(s.Data); err == nil && len(ring.Nodes) > 0 {
				runner.SetRing(ring)
			}
		})
		if err != nil && len(c.cfg.Gossips) > 0 {
			return "", err
		}
		if c.cfg.WorkCheckpointKey != "" {
			if err := c.OnReplicated(c.cfg.WorkCheckpointKey, gossip.CmpCounter, nil); err != nil {
				return "", err
			}
		}
		if c.cfg.EliteShareKey != "" {
			if err := c.OnReplicated(c.cfg.EliteShareKey, ramsey.EliteComparator, nil); err != nil {
				return "", err
			}
		}
	}
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	return addr, nil
}

// Addr returns the component's bound address.
func (c *Component) Addr() string { return c.addr }

// Agent exposes the component's Gossip agent (replicated state access).
func (c *Component) Agent() *gossip.Agent { return c.agent }

// Runner exposes the scheduling runner (nil for service-only components).
func (c *Component) Runner() *sched.Runner { return c.runner }

// Close shuts the component down.
func (c *Component) Close() { c.svc.Close() }

// onFound handles a verified counter-example: replicate it via Gossip
// (volatile-but-replicated) and checkpoint it via the persistent state
// managers (persistent), logging the event.
func (c *Component) onFound(ce *ramsey.CounterExample) {
	data := ce.Encode()
	c.mu.Lock()
	better := ce.Coloring.N() > c.bestN
	if better {
		c.bestN = ce.Coloring.N()
	}
	c.mu.Unlock()
	if better {
		c.agent.SetStamped(gossip.Stamped{
			Key:    BestStateKey,
			Unix:   time.Now().UnixNano(),
			Origin: c.addr,
			Data:   data,
		})
	}
	name := fmt.Sprintf("ramsey/R%d/best", ce.K)
	if err := c.Checkpoint(name, CounterExampleClass, data); err == nil {
		c.Log("info", "checkpointed counter-example: R(%d) > %d", ce.K, ce.Coloring.N())
	}
}

// Publish replicates volatile state under key through the Gossip service.
func (c *Component) Publish(key string, data []byte) {
	c.agent.Set(key, data)
}

// registerKey registers a tracked key with one reachable Gossip, skipping
// addresses the health tracker currently marks dead, and remembers the key
// for Reregister. It reports whether any Gossip accepted the registration.
func (c *Component) registerKey(key, comparator string) bool {
	c.mu.Lock()
	c.tracked[key] = comparator
	c.mu.Unlock()
	for i, g := range c.health.Filter(c.cfg.Gossips) {
		if err := c.agent.Register(c.client, g, key, comparator, c.cfg.CallTimeout); err == nil {
			c.health.Success(g)
			c.metrics.Counter("core.register.ok").Inc()
			if i > 0 {
				c.metrics.Counter("core.failover").Inc()
			}
			return true // one responsible Gossip suffices; the pool replicates
		}
		c.health.Failure(g)
	}
	if len(c.cfg.Gossips) > 0 {
		c.metrics.Counter("core.register.fail").Inc()
	}
	return false
}

// OnReplicated installs a callback fired when a fresher copy of key
// arrives from the Gossip service.
func (c *Component) OnReplicated(key, comparator string, fn func(gossip.Stamped)) error {
	if err := c.agent.Track(key, comparator, fn); err != nil {
		return err
	}
	if c.registerKey(key, comparator) || len(c.cfg.Gossips) == 0 {
		return nil
	}
	return fmt.Errorf("core: no reachable Gossip for key %q", key)
}

// Reregister re-registers every tracked key with the Gossip service,
// clearing dead marks first — the rejoin path a component takes after a
// partition heals or when fresher pool information arrives. It returns the
// number of keys successfully re-registered.
func (c *Component) Reregister() int {
	c.metrics.Counter("core.reregister").Inc()
	c.health.Reset(c.cfg.Gossips...)
	if c.replicas != nil {
		// Reconnect is also the moment to drain checkpoints spooled while
		// the persistent state quorum was unreachable.
		c.health.Reset(c.cfg.PStates...)
		c.replicas.FlushSpool()
	}
	c.mu.Lock()
	keys := make(map[string]string, len(c.tracked))
	for k, cmp := range c.tracked {
		keys[k] = cmp
	}
	c.mu.Unlock()
	n := 0
	for k, cmp := range keys {
		if c.registerKey(k, cmp) {
			n++
		}
	}
	return n
}

// Checkpoint stores persistent state through the quorum replica set (the
// paper stationed managers at multiple trusted sites; the replica set
// turns that into W-of-N durability). If a write quorum is unreachable
// the checkpoint is parked in the component's write-behind spool and
// flushed on reconnect — the degraded-but-still-running posture — and
// Checkpoint still reports success to the application. A validation
// rejection fails outright: the object itself is bad.
func (c *Component) Checkpoint(name, class string, data []byte) error {
	if c.replicas == nil {
		return fmt.Errorf("core: no persistent state managers configured")
	}
	// Each checkpoint roots a trace: the quorum write underneath it fans
	// out into per-replica StoreAt calls, so the tree shows exactly which
	// managers acknowledged and which were retried or failed over.
	sp := wire.StartSpan(c.cfg.Tracer, "core.checkpoint", wire.TraceContext{})
	sp.Annotate("object", name)
	_, err := c.replicas.StoreCtx(sp.Context(), name, class, data)
	switch {
	case err == nil:
		c.metrics.Counter("core.checkpoint.ok").Inc()
		sp.End("ok")
		return nil
	case errors.Is(err, pstate.ErrSpooled):
		c.metrics.Counter("core.checkpoint.spooled").Inc()
		sp.End("spooled")
		return nil
	default:
		c.metrics.Counter("core.checkpoint.fail").Inc()
		sp.End("error")
		return err
	}
}

// Recover fetches persistent state with a quorum read: every manager is
// consulted in parallel, the freshest version wins regardless of listing
// order, and stale replicas are read-repaired on the way out — a manager
// that was down during a checkpoint can no longer serve its stale copy
// just because it is listed first.
func (c *Component) Recover(name string) (*pstate.Object, error) {
	if c.replicas == nil {
		c.metrics.Counter("core.recover.fail").Inc()
		return nil, fmt.Errorf("core: no persistent state managers configured")
	}
	sp := wire.StartSpan(c.cfg.Tracer, "core.recover", wire.TraceContext{})
	sp.Annotate("object", name)
	o, found, err := c.replicas.FetchCtx(sp.Context(), name)
	if err != nil || !found {
		c.metrics.Counter("core.recover.fail").Inc()
		sp.End("error")
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: %q not found at any persistent state manager", name)
	}
	c.metrics.Counter("core.recover.ok").Inc()
	sp.End("ok")
	return o, nil
}

// Log forwards a message to the first reachable logging server (best
// effort).
func (c *Component) Log(level, format string, args ...any) {
	for _, addr := range c.cfg.LogServers {
		lc := logsvc.NewClient(c.client, addr, c.cfg.ID, c.cfg.CallTimeout)
		if lc.Log(level, format, args...) == nil {
			return
		}
	}
}

// RunCycles drives the scheduling runner for up to n cycles, stopping
// early on DirStop or if every scheduler becomes unreachable. It returns
// the number of completed cycles.
func (c *Component) RunCycles(n int) (int, error) {
	if c.runner == nil {
		return 0, fmt.Errorf("core: component has no schedulers configured")
	}
	for i := 0; i < n; i++ {
		if _, err := c.runner.Cycle(); err != nil {
			return i, err
		}
		c.checkpointWork()
		c.shareElite()
		if c.runner.Stopped() {
			return i + 1, nil
		}
	}
	return n, nil
}

// checkpointWork replicates the current work unit via Gossip when a
// checkpoint key is configured.
func (c *Component) checkpointWork() {
	if c.cfg.WorkCheckpointKey == "" {
		return
	}
	w := c.runner.Work()
	if w.ID == 0 {
		return
	}
	c.agent.Set(c.cfg.WorkCheckpointKey, sched.EncodeWorkUnit(w))
}

// shareElite publishes the client's best in-progress coloring and adopts
// a replicated elite that is at least 20% fitter.
func (c *Component) shareElite() {
	if c.cfg.EliteShareKey == "" || c.runner == nil {
		return
	}
	best, conflicts := c.runner.BestState()
	if best == nil || conflicts == 0 {
		return // no search yet, or already a counter-example
	}
	w := c.runner.Work()
	if s, ok := c.agent.Get(c.cfg.EliteShareKey); ok && len(s.Data) > 0 {
		e, err := ramsey.DecodeElite(s.Data)
		if err == nil && e.K == w.K && e.Coloring.N() == best.N() &&
			float64(e.Conflicts) < 0.8*float64(conflicts) {
			if c.runner.RestoreState(e.Coloring) == nil {
				best, conflicts = c.runner.BestState()
			}
		}
	}
	mine := &ramsey.Elite{Conflicts: conflicts, K: w.K, Coloring: best}
	c.agent.SetStamped(gossip.Stamped{
		Key:    c.cfg.EliteShareKey,
		Unix:   time.Now().UnixNano(),
		Origin: c.addr,
		Data:   mine.Encode(),
	})
}

// ResumeFromCheckpoint installs the most recently replicated work unit
// from the component's checkpoint key (delivered via Gossip) as the
// runner's next work. It reports whether a checkpoint was available.
func (c *Component) ResumeFromCheckpoint() (bool, error) {
	if c.cfg.WorkCheckpointKey == "" || c.runner == nil {
		return false, fmt.Errorf("core: no checkpoint key or runner configured")
	}
	s, ok := c.agent.Get(c.cfg.WorkCheckpointKey)
	if !ok || len(s.Data) == 0 {
		return false, nil
	}
	w, err := sched.DecodeWorkUnit(s.Data)
	if err != nil {
		return false, fmt.Errorf("core: corrupt work checkpoint: %w", err)
	}
	return true, c.runner.Adopt(w)
}

// Best returns the best counter-example currently replicated to this
// component (nil if none yet).
func (c *Component) Best() *ramsey.CounterExample {
	s, ok := c.agent.Get(BestStateKey)
	if !ok || len(s.Data) == 0 {
		return nil
	}
	ce, err := ramsey.DecodeCounterExample(s.Data)
	if err != nil {
		return nil
	}
	return ce
}
