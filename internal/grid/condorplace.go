package grid

import (
	"math/rand"
	"time"

	"everyware/internal/simgrid"
)

// Section 5.4 of the paper: since the EveryWare schedulers are stateless
// they were initially executed *inside* the Condor pool, but "the overhead
// associated with managing the location transparency of rapidly moving
// (birthing and dying) schedulers proved prohibitive" — clients only learn
// of a scheduler's death when they attempt to contact it, and then spend
// appreciable time locating a viable one. The team moved the schedulers
// outside the pools, where failure is much rarer, and overall performance
// improved. This file reproduces that experiment as a simulation.

// CondorPlacementConfig parameterizes the placement experiment.
type CondorPlacementConfig struct {
	// Seed drives all stochastic processes.
	Seed int64
	// SchedulerInPool selects the placement under test: true runs the
	// scheduler on a Condor-managed host that gets reclaimed (killing the
	// scheduler); false stations it outside the pool.
	SchedulerInPool bool
}

// The placement experiment runs placementDuration of virtual time over a
// pool of placementClients clients, each
// reporting every placementCycle at a work rate drawn around the Condor
// profile's placementOpsPerSec. The in-pool scheduler lives
// schedulerMeanUp on average, and a replacement is up and announced via
// the Gossip protocol schedulerMeanDown later. A client wastes
// locateCost per failed contact before learning of the viable scheduler:
// repeated adaptive time-outs plus a Gossip circulation round.
const (
	placementDuration  = 6 * time.Hour
	placementClients   = 100
	placementCycle     = 60 * time.Second
	placementOpsPerSec = 3.5e6
	schedulerMeanUp    = 15 * time.Minute
	schedulerMeanDown  = 2 * time.Minute
	locateCost         = 90 * time.Second
)

// CondorPlacementResult reports the outcome of one placement run.
type CondorPlacementResult struct {
	// UsefulOps is the total work delivered.
	UsefulOps float64
	// LocateEvents counts client attempts that hit a dead scheduler.
	LocateEvents int64
	// WastedSeconds is total client time spent locating viable schedulers.
	WastedSeconds float64
	// SchedulerDeaths counts reclamations of the in-pool scheduler.
	SchedulerDeaths int64
}

// RunCondorPlacement replays the section 5.4 experiment for one placement.
func RunCondorPlacement(cfg CondorPlacementConfig) *CondorPlacementResult {
	start := SC98Start
	end := start.Add(placementDuration)
	eng := simgrid.NewEngine(start)
	res := &CondorPlacementResult{}

	// Scheduler availability timeline.
	schedUp := true
	var schedToggle time.Time
	schedRNG := rand.New(rand.NewSource(simgrid.SubSeed(cfg.Seed, 1<<20)))
	if cfg.SchedulerInPool {
		var toggle func()
		toggle = func() {
			schedUp = !schedUp
			if !schedUp {
				res.SchedulerDeaths++
			}
			var d time.Duration
			if schedUp {
				d = simgrid.Exp(schedRNG, schedulerMeanUp, time.Minute)
			} else {
				d = simgrid.Exp(schedRNG, schedulerMeanDown, 15*time.Second)
			}
			schedToggle = eng.Now().Add(d)
			eng.Schedule(schedToggle, toggle)
		}
		first := simgrid.Exp(schedRNG, schedulerMeanUp, time.Minute)
		eng.Schedule(start.Add(first), toggle)
	}

	// Clients: compute a cycle, then contact the scheduler. If the
	// scheduler is dead, the client pays locateCost (it discovers the
	// death only at contact time, then hunts for a viable server).
	for i := 0; i < placementClients; i++ {
		rng := rand.New(rand.NewSource(simgrid.SubSeed(cfg.Seed, i)))
		speed := placementOpsPerSec * simgrid.LogNormal(rng, 0.25)
		var cycle func()
		cycle = func() {
			t := eng.Now()
			if !t.Before(end) {
				return
			}
			ops := speed * placementCycle.Seconds()
			wait := time.Duration(0)
			if cfg.SchedulerInPool && !schedUp {
				res.LocateEvents++
				wait = time.Duration(float64(locateCost) * simgrid.LogNormal(rng, 0.3))
				res.WastedSeconds += wait.Seconds()
			}
			res.UsefulOps += ops
			eng.After(placementCycle+wait, cycle)
		}
		eng.Schedule(start.Add(time.Duration(rng.Float64()*float64(placementCycle))), cycle)
	}
	eng.Run(end)
	return res
}
