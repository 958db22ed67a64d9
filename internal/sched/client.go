package sched

import (
	"errors"
	"fmt"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ErrNoScheduler is returned when no configured scheduling server can be
// reached.
var ErrNoScheduler = errors.New("sched: no viable scheduler")

// RunnerConfig parameterizes a computational client.
type RunnerConfig struct {
	// ClientID uniquely identifies this client to the schedulers.
	ClientID string
	// Infra names the hosting infrastructure (for the evaluation's
	// per-infrastructure breakdown).
	Infra string
	// Schedulers lists scheduling server addresses; the runner fails over
	// between them (scheduler birth/death is circulated by Gossip in the
	// full application; here the list is static per client).
	Schedulers []string
	// SampleEdges bounds heuristic step cost on large graphs.
	SampleEdges int
	// OnFound, if set, is called with each verified counter-example
	// before it is reported (the hook the core package uses to checkpoint
	// through Gossip and persistent state).
	OnFound func(*ramsey.CounterExample)
	// MaxSchedulerFailures marks a scheduler dead after this many
	// consecutive report failures (default 3); dead schedulers are skipped
	// while any alternative is alive and re-probed after
	// SchedulerCooldown.
	MaxSchedulerFailures int
	// SchedulerCooldown is how long a dead scheduler is skipped
	// (default 10s). A newer ring via SetRing clears its members' marks —
	// the rejoin path when scheduler birth/death circulates over Gossip.
	SchedulerCooldown time.Duration
	// Metrics, if set, records report outcomes, scheduler fail-overs, and
	// health-tracker transitions. Nil discards.
	Metrics *telemetry.Registry
	// Tracer, if set, roots a causal trace at every report: the wire
	// client's call/attempt spans, each fail-over hop, and the remote
	// scheduler's decision all become descendants of one sched.report
	// span. Nil disables tracing for this runner.
	Tracer wire.Tracer
}

// ringFailover is how many distinct shards (owner first) make up a
// report's whole candidate list once a scheduler ring is installed (see
// SetRing). When all of them fail the report fails: the static list is
// consulted only while no ring is installed.
const ringFailover = 3

// Runner is the client-side scheduling loop: it requests work, runs the
// assigned heuristic for the budgeted number of steps, reports progress
// (including all communication delays in its elapsed timings, as the paper
// measures), and obeys the resulting directive.
type Runner struct {
	cfg           RunnerConfig
	wc            *wire.Client
	ops           *ramsey.OpCounter
	searcher      *ramsey.Searcher
	work          WorkUnit
	curSched      int
	stopped       bool
	lastReportDur time.Duration
	health        *wire.HealthTracker
	router        *scale.Router
	timeouts      *forecast.TimeoutPolicy // adapts report time-outs
}

// SetRing installs a scheduler ring (typically decoded from the gossip
// scale.RingKey state). Scheduler birth and death information circulates
// this way (section 5.4), so a client switches to the currently viable
// servers without restarting. A newer ring clears dead marks on its
// members — the publication announces them viable — so routing converges
// on the new shard layout immediately.
func (r *Runner) SetRing(ring *scale.Ring) {
	if r.router.SetRing(ring) {
		r.health.Reset(ring.Nodes...)
	}
}

// Router exposes the runner's ring router.
func (r *Runner) Router() *scale.Router { return r.router }

// schedulers returns the failover-ordered report targets: the ring route
// for this client when a ring is installed, else the configured static
// list.
func (r *Runner) schedulers() []string {
	if order := r.router.Route(r.cfg.ClientID, ringFailover); len(order) > 0 {
		return order
	}
	return r.cfg.Schedulers
}

// NewRunner creates a client runner using wc for transport.
func NewRunner(cfg RunnerConfig, wc *wire.Client) (*Runner, error) {
	if cfg.ClientID == "" {
		return nil, fmt.Errorf("sched: ClientID required")
	}
	if len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("sched: at least one scheduler address required")
	}
	health := wire.NewHealthTracker(cfg.MaxSchedulerFailures, cfg.SchedulerCooldown)
	health.Metrics = cfg.Metrics
	return &Runner{
		cfg:      cfg,
		wc:       wc,
		ops:      &ramsey.OpCounter{},
		health:   health,
		router:   scale.NewRouter(nil, cfg.Metrics),
		timeouts: forecast.NewTimeoutPolicy(forecast.NewRegistry()),
	}, nil
}

// Health exposes the runner's scheduler health tracker (fail-over state).
func (r *Runner) Health() *wire.HealthTracker { return r.health }

// Ops exposes the client's useful-work counter.
func (r *Runner) Ops() *ramsey.OpCounter { return r.ops }

// Work returns the current work unit.
func (r *Runner) Work() WorkUnit { return r.work }

// Stopped reports whether a DirStop was received.
func (r *Runner) Stopped() bool { return r.stopped }

// report sends rep to a viable scheduler, failing over through the
// configured list with dynamically discovered time-outs. Schedulers that
// accumulated MaxSchedulerFailures consecutive failures are skipped while
// any alternative is alive (they are re-probed after the cooldown, and
// rejoin instantly on a roster update).
func (r *Runner) report(rep Report) (Directive, error) {
	// Each report roots a new trace: the call below propagates the root's
	// context, so retries, fail-over hops, the scheduler's decision, and
	// the forecast read underneath all land in one tree.
	root := wire.StartOp(nil, r.cfg.Tracer, "sched.report", wire.TraceContext{})
	root.Annotate("client", r.cfg.ClientID)
	scheds := r.health.Filter(r.schedulers())
	for attempt := 0; attempt < len(scheds); attempt++ {
		addr := scheds[(r.curSched+attempt)%len(scheds)]
		key := forecast.Key{Resource: addr, Event: "report"}
		to := r.timeouts.Timeout(key)
		start := time.Now()
		// Call takes ownership of the request packet (it returns the
		// buffer to the pool), so every fail-over attempt encodes afresh.
		req := wire.NewRequest(MsgReport, rep)
		req.Trace = root.Context()
		resp, err := r.wc.Call(addr, req, to)
		if err != nil {
			// A timed-out attempt took at least the full interval: record
			// it at the timeout value so the next interval adapts upward.
			// Fast failures (refused connection, broken pipe) say nothing
			// about response time and are recorded only as health strikes.
			if wire.IsTimeout(err) {
				r.timeouts.Observe(key, to)
			}
			r.health.Failure(addr)
			continue
		}
		r.timeouts.Observe(key, time.Since(start))
		r.health.Success(addr)
		r.curSched = (r.curSched + attempt) % len(scheds)
		r.cfg.Metrics.Counter("sched.client.report.ok").Inc()
		if attempt > 0 {
			// The report only landed on an alternate server.
			r.cfg.Metrics.Counter("sched.client.failover").Inc()
			root.Annotate("failover", "true")
		}
		root.Annotate("sched", addr)
		root.End(telemetry.OutcomeOK)
		var dr Directive
		derr := resp.Decode(&dr)
		resp.Release()
		return dr, derr
	}
	r.cfg.Metrics.Counter("sched.client.report.fail").Inc()
	root.End(telemetry.OutcomeError)
	return Directive{}, ErrNoScheduler
}

// Adopt installs w as the runner's current work (e.g. a checkpointed unit
// replicated via Gossip after a reclamation), constructing or restoring
// the searcher.
func (r *Runner) Adopt(w WorkUnit) error { return r.adopt(w) }

// BestState returns the search's best coloring and its monochromatic
// clique count (nil before any work is adopted).
func (r *Runner) BestState() (*ramsey.Coloring, int) {
	if r.searcher == nil {
		return nil, 0
	}
	return r.searcher.Best()
}

// RestoreState replaces the working coloring — used when a fitter elite
// state arrives from another client via the Gossip service, so the pool
// prunes the search space cooperatively.
func (r *Runner) RestoreState(col *ramsey.Coloring) error {
	if r.searcher == nil {
		return fmt.Errorf("sched: no active search to restore into")
	}
	return r.searcher.Restore(col)
}

// adopt installs a new work unit, constructing (or restoring) the
// searcher.
func (r *Runner) adopt(w WorkUnit) error {
	cfg := ramsey.SearchConfig{
		N:           w.N,
		K:           w.K,
		Heuristic:   ramsey.Heuristic(w.Heuristic),
		Seed:        w.Seed,
		SampleEdges: r.cfg.SampleEdges,
	}
	s, err := ramsey.NewSearcher(cfg, r.ops)
	if err != nil {
		return err
	}
	if len(w.State) > 0 {
		col, err := ramsey.DecodeColoring(w.State)
		if err != nil {
			return fmt.Errorf("sched: migrated state corrupt: %w", err)
		}
		if err := s.Restore(col); err != nil {
			return err
		}
	}
	r.searcher = s
	r.work = w
	return nil
}

// Cycle performs one full client cycle: acquire work if needed, run the
// step budget, and report. It returns the directive received. Callers loop
// over Cycle until Stopped or an error they cannot recover from.
func (r *Runner) Cycle() (Directive, error) {
	if r.stopped {
		return Directive{Kind: DirStop}, nil
	}
	// No work yet: first contact retrieves start-up parameters via
	// messages (the paper's infrastructure-independent bootstrap).
	if r.searcher == nil {
		dr, err := r.report(Report{ClientID: r.cfg.ClientID, Infra: r.cfg.Infra})
		if err != nil {
			return Directive{}, err
		}
		switch dr.Kind {
		case DirNewWork:
			if err := r.adopt(dr.Work); err != nil {
				return Directive{}, err
			}
		case DirStop:
			r.stopped = true
			return dr, nil
		case DirShed:
			// Admission refused the bootstrap: no work yet, try again on
			// the next cycle (degraded success, not an error).
			r.cfg.Metrics.Counter("sched.client.report.shed").Inc()
			return dr, nil
		default:
			return Directive{}, fmt.Errorf("sched: first contact got directive %d without work", dr.Kind)
		}
		return Directive{Kind: DirNewWork, Work: r.work}, nil
	}

	start := time.Now()
	opsBefore := r.ops.Total()
	found := r.searcher.Run(r.work.Steps)
	var state []byte
	if found {
		best, _ := r.searcher.Best()
		ce := &ramsey.CounterExample{K: r.work.K, Coloring: best, Finder: r.cfg.ClientID}
		if r.cfg.OnFound != nil && ce.Verify() == nil {
			r.cfg.OnFound(ce)
		}
		state = best.Encode()
	} else {
		state = r.searcher.State()
	}
	// Elapsed covers the compute phase plus the previous report's round
	// trip: communication delays count against the client, keeping
	// reported rates conservative (section 4 of the paper).
	elapsed := time.Since(start) + r.lastReportDur
	rep := Report{
		ClientID:   r.cfg.ClientID,
		Infra:      r.cfg.Infra,
		WorkID:     r.work.ID,
		Ops:        r.ops.Total() - opsBefore,
		ElapsedSec: elapsed.Seconds(),
		Conflicts:  r.searcher.Conflicts(),
		Iterations: r.searcher.Iterations(),
		Found:      found,
		State:      state,
	}
	repStart := time.Now()
	dr, err := r.report(rep)
	r.lastReportDur = time.Since(repStart)
	if err != nil {
		return Directive{}, err
	}
	switch dr.Kind {
	case DirContinue:
		if dr.Steps > 0 {
			r.work.Steps = dr.Steps
		}
	case DirNewWork:
		if err := r.adopt(dr.Work); err != nil {
			return Directive{}, err
		}
	case DirStop:
		r.stopped = true
	case DirShed:
		// The shard refused the report under load: nothing was recorded,
		// but the computed progress is intact — keep working the current
		// unit with the same budget and re-report next cycle.
		r.cfg.Metrics.Counter("sched.client.report.shed").Inc()
	}
	return dr, nil
}
