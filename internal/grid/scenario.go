package grid

import (
	"math/rand"
	"strconv"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/ramsey"
	"everyware/internal/sched"
	"everyware/internal/simgrid"
	"everyware/internal/telemetry"
	"everyware/internal/trace"
	"everyware/internal/wire"
)

// SC98Start is the beginning of the evaluation window: 23:36:56 PST on
// November 11 1998, twelve hours before the end of Figure 2's x-axis.
var SC98Start = time.Date(1998, 11, 11, 23, 36, 56, 0, time.FixedZone("PST", -8*3600))

// Offsets of the evaluation window's landmark events, relative to
// SC98Start.
const (
	// SC98Duration is the evaluation window length.
	SC98Duration = 12 * time.Hour
	// TestWindowAt is when the pre-competition test run began (09:45 PST):
	// the project team rallied every resource, producing the experiment's
	// peak rate between 09:51 and 09:56.
	TestWindowAt = 10*time.Hour + 8*time.Minute + 4*time.Second
	// TestWindowLen is how long the all-resources test lasted.
	TestWindowLen = 30 * time.Minute
	// JudgingAt is when HPC-challenge judging began (11:00 PST) and
	// competing projects claimed resources and flooded SCINet.
	JudgingAt = 11*time.Hour + 23*time.Minute + 4*time.Second
)

// ScenarioConfig parameterizes one SC98 replay.
type ScenarioConfig struct {
	// Seed drives every stochastic process; same seed, same figures.
	Seed int64
	// Start defaults to SC98Start.
	Start time.Time
	// Duration defaults to SC98Duration.
	Duration time.Duration
	// Profiles defaults to SC98Profiles().
	Profiles []Profile
	// AdaptiveTimeouts selects the paper's dynamic time-out discovery;
	// false replays with statically configured time-outs (the E7
	// ablation).
	AdaptiveTimeouts bool
	// StaticTimeout is the fixed report time-out used when
	// AdaptiveTimeouts is false (default 1s).
	StaticTimeout time.Duration
	// BucketWidth defaults to trace.BucketWidth (5 minutes).
	BucketWidth time.Duration
	// DisableJudging removes the 11:00 judging spike.
	DisableJudging bool
	// DisableTestWindow removes the 09:45 all-resources test run.
	DisableTestWindow bool
	// MaxReportAttempts bounds report retries per cycle (default 3).
	MaxReportAttempts int
	// Tracer, if set, records causal spans from the replay's real
	// scheduling policy object. Build it with a dtrace.Config whose Now is
	// the engine's virtual clock (see RunSC98's engine) so span times are
	// virtual-time quantities spanning the replayed window.
	Tracer wire.Tracer
}

func (c *ScenarioConfig) fill() {
	if c.Start.IsZero() {
		c.Start = SC98Start
	}
	if c.Duration == 0 {
		c.Duration = SC98Duration
	}
	if len(c.Profiles) == 0 {
		c.Profiles = SC98Profiles()
	}
	if c.StaticTimeout == 0 {
		c.StaticTimeout = time.Second
	}
	if c.BucketWidth == 0 {
		c.BucketWidth = trace.BucketWidth
	}
	if c.MaxReportAttempts == 0 {
		c.MaxReportAttempts = 3
	}
}

// Result carries everything the evaluation figures need.
type Result struct {
	// Start and BucketWidth locate the series in time.
	Start       time.Time
	BucketWidth time.Duration
	// Perf holds delivered integer-ops per infrastructure; use Rate(i)
	// for the ops/s series of Figures 3a and 4a.
	Perf *trace.Collection
	// Hosts holds live host counts per infrastructure; use Mean(i) for
	// Figures 3b and 4b.
	Hosts *trace.Collection
	// Total is the aggregate delivered-ops series of Figures 2, 3c, 4c.
	Total *trace.Series
	// ReportAttempts counts all report attempts; SpuriousTimeouts the
	// attempts that timed out; FailedReports the cycles whose report was
	// abandoned (their ops were lost).
	ReportAttempts   int64
	SpuriousTimeouts int64
	FailedReports    int64
	// LostOps is the useful work discarded due to failed reports.
	LostOps float64
	// SchedulerReports/SchedulerMigrations expose the scheduling policy's
	// activity during the replay.
	SchedulerReports    int64
	SchedulerMigrations int64
	// Telemetry is the scheduling server's final metrics snapshot. The
	// server's registry follows the simulation engine's virtual clock, so
	// spans and uptime are virtual-time quantities spanning the replayed
	// window, not the milliseconds the replay took on the wall.
	Telemetry telemetry.Snapshot
}

// PeakRate returns the highest bucket rate in Total and its bucket start
// time.
func (r *Result) PeakRate() (float64, time.Time) {
	best, at := 0.0, r.Start
	for i := 0; i < r.Total.Buckets(); i++ {
		if v := r.Total.Rate(i); v > best {
			best, at = v, r.Total.BucketTime(i)
		}
	}
	return best, at
}

// RateAt returns Total's rate in the bucket containing offset.
func (r *Result) RateAt(offset time.Duration) float64 {
	return r.Total.Rate(int(offset / r.BucketWidth))
}

// MinRateBetween returns the lowest bucket rate in [from, to) offsets.
func (r *Result) MinRateBetween(from, to time.Duration) float64 {
	lo := int(from / r.BucketWidth)
	hi := int(to / r.BucketWidth)
	best := -1.0
	for i := lo; i < hi && i < r.Total.Buckets(); i++ {
		if v := r.Total.Rate(i); best < 0 || v < best {
			best = v
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// host is one simulated machine running an EveryWare client.
type host struct {
	id        string
	infra     Infra
	profile   Profile
	rng       *rand.Rand
	speed     float64
	claimRank float64

	up         bool
	nextToggle time.Time

	policy *forecast.TimeoutPolicy
	fkey   forecast.Key

	workID uint64
}

// advance walks the availability renewal process forward to t.
func (h *host) advance(t time.Time) {
	if h.profile.MeanUp == 0 {
		h.up = true
		return
	}
	for !h.nextToggle.After(t) {
		h.up = !h.up
		var d time.Duration
		if h.up {
			d = simgrid.Exp(h.rng, h.profile.MeanUp, time.Minute)
		} else {
			d = simgrid.Exp(h.rng, h.profile.MeanDown, time.Minute)
		}
		h.nextToggle = h.nextToggle.Add(d)
	}
}

// scenario bundles the replay state.
type scenario struct {
	cfg     ScenarioConfig
	eng     *simgrid.Engine
	net     *NetLoad
	hosts   []*host
	res     *Result
	sch     *sched.Server
	state   []byte // shared dummy in-progress coloring for reports
	end     time.Time
	testLo  time.Time
	testHi  time.Time
	judging time.Time
}

// inTestWindow reports whether the all-resources test run is in effect.
func (s *scenario) inTestWindow(t time.Time) bool {
	if s.cfg.DisableTestWindow {
		return false
	}
	return !t.Before(s.testLo) && t.Before(s.testHi)
}

// claimedFraction is the share of an infrastructure's pool claimed by
// competing projects at time t.
func (s *scenario) claimedFraction(p Profile, t time.Time) float64 {
	if s.cfg.DisableJudging || t.Before(s.judging) {
		return 0
	}
	switch d := t.Sub(s.judging); {
	case d < 7*time.Minute:
		return p.ClaimFraction // full claim during the initial collapse
	case d < 12*time.Minute:
		return p.ClaimFraction * 0.4 // the application reorganizes itself
	default:
		return p.ClaimFraction * 0.1 // competitors' demos wind down
	}
}

// active reports whether the host can do useful work at t.
func (s *scenario) active(h *host, t time.Time) bool {
	if h.claimRank < s.claimedFraction(h.profile, t) {
		return false
	}
	h.advance(t)
	return h.up || s.inTestWindow(t)
}

// RunSC98 replays the SC98 evaluation window and returns the series behind
// every figure in the paper's results section.
func RunSC98(cfg ScenarioConfig) *Result {
	cfg.fill()
	s := &scenario{
		cfg: cfg,
		eng: simgrid.NewEngine(cfg.Start),
		res: &Result{
			Start:       cfg.Start,
			BucketWidth: cfg.BucketWidth,
			Perf:        trace.NewCollection(cfg.Start, cfg.BucketWidth),
			Hosts:       trace.NewCollection(cfg.Start, cfg.BucketWidth),
			Total:       trace.NewSeries(cfg.Start, cfg.BucketWidth),
		},
		end:     cfg.Start.Add(cfg.Duration),
		testLo:  cfg.Start.Add(TestWindowAt),
		testHi:  cfg.Start.Add(TestWindowAt + TestWindowLen),
		judging: cfg.Start.Add(JudgingAt),
	}
	rootRNG := rand.New(rand.NewSource(cfg.Seed))
	judgingOffset := JudgingAt
	if cfg.DisableJudging {
		judgingOffset = -1
	}
	s.net = NewNetLoad(NetLoadConfig{
		Start:     cfg.Start,
		Duration:  cfg.Duration,
		JudgingAt: judgingOffset,
	}, rootRNG)

	// The real scheduling policy object, run on virtual time: its
	// registry's clock is the scheduler's clock.
	reg := telemetry.NewRegistry()
	reg.SetNow(s.eng.Now)
	s.sch = sched.NewServer(sched.ServerConfig{
		N: 17, K: 4,
		StaleAfter:    20 * time.Minute,
		MedianRefresh: time.Minute,
		Metrics:       reg,
		Tracer:        cfg.Tracer,
	})
	s.state = ramsey.NewColoring(17).Encode()

	// Build the host pools.
	idx := 0
	for _, p := range cfg.Profiles {
		for i := 0; i < p.Hosts; i++ {
			rng := rand.New(rand.NewSource(simgrid.SubSeed(cfg.Seed, idx)))
			idx++
			speed := p.OpsPerSec * simgrid.LogNormal(rng, p.SpeedJitter)
			if p.Name == InfraJava && rng.Float64() >= p.JITFraction {
				speed = JavaInterpretedOpsPerSec * simgrid.LogNormal(rng, p.SpeedJitter)
			}
			h := &host{
				id:         string(p.Name) + "-" + itoa(i),
				infra:      p.Name,
				profile:    p,
				rng:        rng,
				speed:      speed,
				claimRank:  rng.Float64(),
				up:         rng.Float64() < upFraction(p),
				nextToggle: cfg.Start,
				fkey:       forecast.Key{Resource: string(p.Name) + "-" + itoa(i), Event: "report"},
			}
			if h.up {
				h.nextToggle = cfg.Start.Add(simgrid.Exp(rng, p.MeanUp, time.Minute))
			} else if p.MeanUp > 0 {
				h.nextToggle = cfg.Start.Add(simgrid.Exp(rng, p.MeanDown, time.Minute))
			}
			if cfg.AdaptiveTimeouts {
				h.policy = forecast.NewTimeoutPolicy(forecast.NewRegistry())
				h.policy.Default = 2 * time.Second
			}
			s.hosts = append(s.hosts, h)
			// Stagger first cycles so report load spreads (the paper's
			// randomized client start-up sleep).
			start := cfg.Start.Add(time.Duration(rng.Float64() * float64(p.CycleTime)))
			hh := h
			s.eng.Schedule(start, func() { s.cycle(hh) })
		}
	}
	// Host-count sampler, once per simulated minute.
	var sample func()
	sample = func() {
		t := s.eng.Now()
		counts := make(map[Infra]int)
		for _, h := range s.hosts {
			if s.active(h, t) {
				counts[h.infra]++
			}
		}
		for _, p := range cfg.Profiles {
			s.res.Hosts.Series(string(p.Name)).Add(t, float64(counts[p.Name]))
		}
		if t.Add(time.Minute).Before(s.end) {
			s.eng.After(time.Minute, sample)
		}
	}
	s.eng.Schedule(cfg.Start, sample)

	s.eng.Run(s.end)
	s.res.SchedulerReports, s.res.SchedulerMigrations, _ = s.sch.Stats()
	s.res.Telemetry = s.sch.Metrics().Snapshot("")
	return s.res
}

// upFraction is the steady-state probability of a host being available.
func upFraction(p Profile) float64 {
	if p.MeanUp == 0 {
		return 1
	}
	return float64(p.MeanUp) / float64(p.MeanUp+p.MeanDown)
}

// cycle simulates one client report cycle on h: a compute phase followed
// by a progress report with (adaptive or static) time-outs. Delivered ops
// are recorded only when the report succeeds, and all communication time
// counts against the client — the paper's conservative accounting.
func (s *scenario) cycle(h *host) {
	t := s.eng.Now()
	if !t.Before(s.end) {
		return
	}
	if !s.active(h, t) {
		// Claimed or reclaimed host: idle until the next cycle boundary.
		s.eng.After(h.profile.CycleTime, func() { s.cycle(h) })
		return
	}
	computeT := h.profile.CycleTime
	ops := h.speed * computeT.Seconds()

	// Report phase.
	waited := time.Duration(0)
	success := false
	attempts := 0
	for attempts < s.cfg.MaxReportAttempts {
		attempts++
		s.res.ReportAttempts++
		at := t.Add(computeT + waited)
		resp := time.Duration(float64(h.profile.LatencyBase) *
			s.net.Factor(at) * simgrid.LogNormal(h.rng, h.profile.LatencyJitter))
		var to time.Duration
		if s.cfg.AdaptiveTimeouts {
			to = h.policy.Timeout(h.fkey)
		} else {
			to = s.cfg.StaticTimeout
		}
		if resp <= to {
			waited += resp
			if s.cfg.AdaptiveTimeouts {
				h.policy.Observe(h.fkey, resp)
			}
			success = true
			break
		}
		waited += to
		s.res.SpuriousTimeouts++
		if s.cfg.AdaptiveTimeouts {
			h.policy.Observe(h.fkey, to)
		}
	}
	done := t.Add(computeT + waited)
	if success {
		s.res.Perf.Series(string(h.infra)).Add(done, ops)
		s.res.Total.Add(done, ops)
		// Drive the real scheduling policy with this report.
		dr := s.sch.Handle(sched.Report{
			ClientID:   h.id,
			Infra:      string(h.infra),
			WorkID:     h.workID,
			Ops:        int64(ops),
			ElapsedSec: (computeT + waited).Seconds(),
			Conflicts:  1,
			State:      s.state,
		})
		if dr.Kind == sched.DirNewWork {
			h.workID = dr.Work.ID
		}
	} else {
		s.res.FailedReports++
		s.res.LostOps += ops
	}
	s.eng.Schedule(done, func() { s.cycle(h) })
}

// itoa keeps host-ID construction readable.
func itoa(v int) string { return strconv.Itoa(v) }
