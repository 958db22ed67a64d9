// Package condor models the Condor high-throughput substrate of section
// 5.4: a federation of owner-controlled workstations whose idle cycles are
// consumed by guest jobs. Owners retain ultimate authority — Condor
// monitors keyboard and process activity, claims workstations that go
// idle, and when an owner returns, a "vanilla universe" guest job is
// terminated without warning. EveryWare clients therefore checkpoint their
// state through the Gossip service, and the stateless schedulers were
// (after the lesson of section 5.4) stationed outside the pool.
//
// The pool runs under the discrete-event engine so tests and experiments
// replay deterministically from a seed.
package condor

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"everyware/internal/simgrid"
)

// WorkstationState describes a machine's availability.
type WorkstationState uint8

// Workstation states.
const (
	// OwnerActive: keyboard/process activity; no guests allowed.
	OwnerActive WorkstationState = iota + 1
	// Idle: no owner activity, waiting out the claim delay.
	Idle
	// Claimed: running a guest job.
	Claimed
)

// String renders a state.
func (s WorkstationState) String() string {
	switch s {
	case OwnerActive:
		return "owner-active"
	case Idle:
		return "idle"
	case Claimed:
		return "claimed"
	default:
		return "unknown"
	}
}

// JobCallbacks notify a guest job of placement events. OnKill models the
// vanilla universe: termination without warning when the owner returns —
// any unsaved state is lost.
type JobCallbacks struct {
	// OnStart fires when the job is placed on a workstation.
	OnStart func(workstation string)
	// OnKill fires when the workstation is reclaimed.
	OnKill func()
}

// job is one guest job record.
type job struct {
	id      string
	cb      JobCallbacks
	ws      int // -1 when queued
	started time.Time
	goodput time.Duration
	starts  int
	kills   int
}

// PoolConfig parameterizes a Condor pool.
type PoolConfig struct {
	// Seed drives the owner-activity processes.
	Seed int64
	// Workstations is the pool size.
	Workstations int
	// MeanOwnerActive and MeanOwnerIdle are the owner-activity renewal
	// process means (defaults 20m / 40m).
	MeanOwnerActive, MeanOwnerIdle time.Duration
	// ClaimDelay is how long a workstation must be idle before Condor
	// claims it for guests (default 2m).
	ClaimDelay time.Duration
}

func (c *PoolConfig) fill() {
	if c.Workstations <= 0 {
		c.Workstations = 10
	}
	if c.MeanOwnerActive == 0 {
		c.MeanOwnerActive = 20 * time.Minute
	}
	if c.MeanOwnerIdle == 0 {
		c.MeanOwnerIdle = 40 * time.Minute
	}
	if c.ClaimDelay == 0 {
		c.ClaimDelay = 2 * time.Minute
	}
}

// workstation is one owner-controlled machine.
type workstation struct {
	name      string
	state     WorkstationState
	rng       *rand.Rand
	idleSince time.Time
	jobID     string // guest currently placed ("" if none)
}

// Stats summarizes pool activity.
type Stats struct {
	Claims     int64
	Reclaims   int64
	Queued     int
	Running    int
	IdleOrFree int
}

// Pool is the Condor matchmaker and workstation manager.
type Pool struct {
	cfg PoolConfig
	eng *simgrid.Engine

	mu       sync.Mutex
	stations []*workstation
	jobs     map[string]*job
	queue    []string
	claims   int64
	reclaims int64
}

// NewPool builds a pool on eng and schedules the owner-activity
// processes. The engine's Run drives everything.
func NewPool(eng *simgrid.Engine, cfg PoolConfig) *Pool {
	cfg.fill()
	p := &Pool{cfg: cfg, eng: eng, jobs: make(map[string]*job)}
	for i := 0; i < cfg.Workstations; i++ {
		ws := &workstation{
			name:  fmt.Sprintf("ws-%03d", i),
			state: OwnerActive,
			rng:   rand.New(rand.NewSource(simgrid.SubSeed(cfg.Seed, i))),
		}
		p.stations = append(p.stations, ws)
		idx := i
		// Stagger the first owner departure.
		eng.After(simgrid.Exp(ws.rng, cfg.MeanOwnerActive, time.Minute), func() { p.ownerLeaves(idx) })
	}
	return p
}

// Submit queues a guest job. Jobs run until killed and are re-queued on
// reclamation (the application-level checkpoint restart is the caller's
// job, via OnKill/OnStart).
func (p *Pool) Submit(id string, cb JobCallbacks) error {
	p.mu.Lock()
	if _, dup := p.jobs[id]; dup {
		p.mu.Unlock()
		return fmt.Errorf("condor: job %q already submitted", id)
	}
	p.jobs[id] = &job{id: id, cb: cb, ws: -1}
	p.queue = append(p.queue, id)
	p.mu.Unlock()
	p.match()
	return nil
}

// ownerLeaves transitions a workstation to Idle and arms the claim timer.
func (p *Pool) ownerLeaves(idx int) {
	p.mu.Lock()
	ws := p.stations[idx]
	ws.state = Idle
	ws.idleSince = p.eng.Now()
	idleFor := simgrid.Exp(ws.rng, p.cfg.MeanOwnerIdle, time.Minute)
	p.mu.Unlock()
	p.eng.After(p.cfg.ClaimDelay, func() { p.tryClaim(idx) })
	p.eng.After(idleFor, func() { p.ownerReturns(idx) })
}

// ownerReturns reclaims the workstation, killing any guest without
// warning.
func (p *Pool) ownerReturns(idx int) {
	p.mu.Lock()
	ws := p.stations[idx]
	var killed *job
	if ws.state == Claimed && ws.jobID != "" {
		killed = p.jobs[ws.jobID]
		if killed != nil {
			killed.goodput += p.eng.Now().Sub(killed.started)
			killed.kills++
			killed.ws = -1
			p.queue = append(p.queue, killed.id)
		}
		p.reclaims++
		ws.jobID = ""
	}
	ws.state = OwnerActive
	activeFor := simgrid.Exp(ws.rng, p.cfg.MeanOwnerActive, time.Minute)
	p.mu.Unlock()
	if killed != nil && killed.cb.OnKill != nil {
		killed.cb.OnKill()
	}
	p.eng.After(activeFor, func() { p.ownerLeaves(idx) })
	p.match()
}

// tryClaim claims a workstation that has stayed idle through the claim
// delay.
func (p *Pool) tryClaim(idx int) {
	p.mu.Lock()
	ws := p.stations[idx]
	stillIdle := ws.state == Idle && p.eng.Now().Sub(ws.idleSince) >= p.cfg.ClaimDelay
	p.mu.Unlock()
	if stillIdle {
		p.match()
	}
}

// match places queued jobs on claimable workstations.
func (p *Pool) match() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		var ws *workstation
		for _, cand := range p.stations {
			if cand.state == Idle && p.eng.Now().Sub(cand.idleSince) >= p.cfg.ClaimDelay {
				ws = cand
				break
			}
		}
		if ws == nil {
			p.mu.Unlock()
			return
		}
		id := p.queue[0]
		p.queue = p.queue[1:]
		j := p.jobs[id]
		ws.state = Claimed
		ws.jobID = id
		for i, cand := range p.stations {
			if cand == ws {
				j.ws = i
			}
		}
		j.started = p.eng.Now()
		j.starts++
		p.claims++
		cb := j.cb.OnStart
		name := ws.name
		p.mu.Unlock()
		if cb != nil {
			cb(name)
		}
	}
}

// Stats returns a pool activity snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{Claims: p.claims, Reclaims: p.reclaims, Queued: len(p.queue)}
	for _, ws := range p.stations {
		switch ws.state {
		case Claimed:
			st.Running++
		case Idle:
			st.IdleOrFree++
		}
	}
	return st
}

// JobReport summarizes one job's history.
type JobReport struct {
	ID      string
	Starts  int
	Kills   int
	Goodput time.Duration
	Running bool
}

// Jobs returns per-job reports, sorted by ID. Goodput for a running job
// includes time up to the engine's current instant.
func (p *Pool) Jobs() []JobReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobReport, 0, len(p.jobs))
	for _, j := range p.jobs {
		r := JobReport{ID: j.id, Starts: j.starts, Kills: j.kills, Goodput: j.goodput, Running: j.ws >= 0}
		if j.ws >= 0 {
			r.Goodput += p.eng.Now().Sub(j.started)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
