package grid

import (
	"math/rand"
	"sort"
	"time"

	"everyware/internal/simgrid"
)

// NetLoad models the ambient network load multiplier over the experiment
// window: response times scale by this factor. It covers the SCINet
// exhibit-floor reconfigurations ("network performance on the exhibit
// floor varied dramatically, particularly as SCINet was reconfigured
// on-the-fly to handle increased demand") and the judging-time spike, when
// several competing projects were demonstrated simultaneously over the
// same resources.
type NetLoad struct {
	start    time.Time
	episodes []episode
}

type episode struct {
	from, to time.Time
	factor   float64
}

// NetLoadConfig parameterizes the load model.
type NetLoadConfig struct {
	// Start and Duration bound the experiment window.
	Start    time.Time
	Duration time.Duration
	// SCINetEpisodes is the number of random reconfiguration episodes
	// scattered over the window (default 6).
	SCINetEpisodes int
	// JudgingAt is the offset of the judging spike start (default 11h24m
	// into the window, i.e. 11:00 when starting at 23:36). Negative
	// disables the spike.
	JudgingAt time.Duration
}

// judgingPeakFactor is the load multiplier at the height of the judging
// spike.
const judgingPeakFactor = 8

// NewNetLoad builds the load timeline from cfg using rng.
func NewNetLoad(cfg NetLoadConfig, rng *rand.Rand) *NetLoad {
	if cfg.SCINetEpisodes == 0 {
		cfg.SCINetEpisodes = 6
	}
	nl := &NetLoad{start: cfg.Start}
	// Random SCINet reconfiguration episodes: 2-4x for 8-25 minutes.
	for i := 0; i < cfg.SCINetEpisodes; i++ {
		at := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
		dur := 8*time.Minute + simgrid.Exp(rng, 8*time.Minute, 0)
		if dur > 25*time.Minute {
			dur = 25 * time.Minute
		}
		factor := 2 + 2*rng.Float64()
		nl.episodes = append(nl.episodes, episode{from: at, to: at.Add(dur), factor: factor})
	}
	// Judging spike: sharp rise, then decay as demand subsides and the
	// application's adaptive time-outs absorb the rest.
	if cfg.JudgingAt >= 0 {
		at := cfg.Start.Add(cfg.JudgingAt)
		nl.episodes = append(nl.episodes,
			episode{from: at, to: at.Add(8 * time.Minute), factor: judgingPeakFactor},
			episode{from: at.Add(8 * time.Minute), to: at.Add(20 * time.Minute), factor: 2},
			episode{from: at.Add(20 * time.Minute), to: at.Add(40 * time.Minute), factor: 1.5},
		)
	}
	sort.Slice(nl.episodes, func(i, j int) bool { return nl.episodes[i].from.Before(nl.episodes[j].from) })
	return nl
}

// Factor returns the load multiplier at time t (>= 1; overlapping episodes
// take the maximum).
func (nl *NetLoad) Factor(t time.Time) float64 {
	f := 1.0
	for _, ep := range nl.episodes {
		if !t.Before(ep.from) && t.Before(ep.to) && ep.factor > f {
			f = ep.factor
		}
	}
	return f
}
