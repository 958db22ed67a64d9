// Package sweep drives the web-scale validation experiment: a
// discrete-event simulation (everyware/internal/simgrid) of 100k–1M
// clients reporting through region gateways into a consistent-hash
// sharded scheduler fleet, with per-shard token-bucket admission control.
// Real testbeds top out far below this scale — GridSim-style simulation
// is the methodology for validating grid schedulers beyond it — so the
// sweep runs the production components (Ring, Router, Admitter,
// outbox.Pending) under a virtual clock and measures what the ROADMAP's
// millions-of-users north star actually requires: decision latency,
// per-shard resident state, and shed rate that stay bounded as the
// client population and the shard count grow together.
package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"everyware/internal/outbox"
	"everyware/internal/scale"
	"everyware/internal/simgrid"
	"everyware/internal/telemetry"
)

// Config sizes one sweep point.
type Config struct {
	// Clients is the simulated client population.
	Clients int
	// Shards is the scheduling shard count.
	Shards int
	// Duration is the virtual horizon (default 30s).
	Duration time.Duration
	// AdmitRate/AdmitBurst parameterize each shard's token bucket
	// (reports/sec; 0 disables shedding).
	AdmitRate  float64
	AdmitBurst float64
	// Seed makes the run reproducible.
	Seed int64
	// KillAt, if positive, marks shard KillShard dead at that virtual
	// time — the chaos experiment. reshardAfter later the re-sharded ring
	// is published, as the Gossip pool would after detecting the death.
	KillAt    time.Duration
	KillShard int
}

// The modelled fleet: one region gateway fronts regionSize clients, each
// reporting every reportInterval; gateways flush batches every
// flushInterval; a gateway->shard round trip takes rtt and a shard spends
// serviceTime deciding each report. The re-sharded ring is published
// reshardAfter (two flush intervals) after a kill.
const (
	regionSize     = 4096
	reportInterval = 10 * time.Second
	flushInterval  = 250 * time.Millisecond
	rtt            = 2 * time.Millisecond
	serviceTime    = 20 * time.Microsecond
	reshardAfter   = 2 * flushInterval
)

func (c *Config) fill() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
}

// Result is one sweep point's measurements.
type Result struct {
	Clients int `json:"clients"`
	Shards  int `json:"shards"`
	Regions int `json:"regions"`

	// Reports is the number of client reports generated; Acked is how
	// many were admitted and recorded by a shard; Shed counts admission
	// rejections (each shed report is requeued and retried); Pending is
	// what was still buffered when the horizon hit.
	Reports int64 `json:"reports"`
	Acked   int64 `json:"acked"`
	Shed    int64 `json:"shed"`
	Pending int64 `json:"pending"`
	// Coalesced counts reports absorbed by a newer report for the same
	// client before delivery (including requeued reports superseded by
	// the client's next report).
	Coalesced int64 `json:"coalesced"`
	// Lost is reports neither acked nor still pending — must be zero:
	// the conservation law behind "no lost acked reports".
	Lost int64 `json:"lost"`
	// Failovers counts batches delivered to a ring successor because the
	// owner shard was dead.
	Failovers int64 `json:"failovers"`

	ShedRate float64 `json:"shed_rate"`

	// Decision latency: client report generation -> shard decision,
	// including batch wait, modeled RTT, and positional service time.
	P50 time.Duration `json:"p50"`
	P95 time.Duration `json:"p95"`
	Max time.Duration `json:"max"`

	// MaxShardRecords is the largest per-shard resident client-state
	// count — the quantity sharding must keep bounded.
	MaxShardRecords  int     `json:"max_shard_records"`
	MeanShardRecords float64 `json:"mean_shard_records"`

	// HeapBytes is the heap growth over the run; PerClient divides by
	// the population.
	HeapBytes      uint64  `json:"heap_bytes"`
	HeapPerClient  float64 `json:"heap_per_client"`
	GossipFlat     float64 `json:"gossip_flat"`
	GossipHier     float64 `json:"gossip_hier"`
	RingVersion    uint64  `json:"ring_version"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	Events         int     `json:"events"`
}

// report is one buffered client report travelling through a gateway.
type report struct {
	client uint32
	pri    scale.Priority
	enq    time.Time
}

// shard is the simulated scheduling server: admission control plus the
// per-client resident state a real shard would hold.
type shard struct {
	name    string
	admit   *scale.Admitter
	records map[uint32]uint16
	acked   int64
	alive   bool
}

// gateway is one simulated region gateway: the real pending buffer, keyed
// by client, plus the simulation's own flush-age model — a shard's buffer
// is sent when it reaches outbox.MaxBatch or, at a tick, once its oldest
// report has waited half a flush interval. (A real gateway has no such
// timer; the model stands in for the send latency a kicked sender sees.)
type gateway struct {
	region  int
	first   uint32 // first client index fronted
	clients uint32
	cursor  uint32
	pending outbox.Pending[uint32, report]
	oldest  map[string]time.Time // per shard: when its buffer was opened
}

// buffer holds r for shard dest and returns how many reports dest now
// holds. It never sends: a fresh report's caller sends at MaxBatch, and a
// report that came back shed or undeliverable just waits, so a requeue
// loop cannot recurse into delivery (the buffer may pass MaxBatch until
// the next fresh report or tick drains it).
func (g *gateway) buffer(dest string, r report, now time.Time, coalesced *int64) int {
	n, dup := g.pending.Put(dest, r.client, r)
	if dup {
		*coalesced++
	} else if n == 1 {
		g.oldest[dest] = now
	}
	return n
}

// aged takes every shard buffer at least maxDelay old, in sorted shard
// order so replays are deterministic.
func (g *gateway) aged(now time.Time, maxDelay time.Duration) []outbox.Batch[report] {
	var dests []string
	for d, t := range g.oldest {
		if now.Sub(t) >= maxDelay {
			dests = append(dests, d)
		}
	}
	sort.Strings(dests)
	out := make([]outbox.Batch[report], len(dests))
	for i, d := range dests {
		delete(g.oldest, d)
		out[i] = outbox.Batch[report]{Dest: d, Items: g.pending.Take(d, math.MaxInt)}
	}
	return out
}

// Run executes one sweep point and returns its measurements.
func Run(cfg Config) Result {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	eng := simgrid.NewEngine(time.Unix(0, 0).UTC())
	// The real components' scale.* counters, on the virtual clock.
	metrics := telemetry.NewRegistry()
	metrics.SetNow(eng.Now)

	shards := make([]*shard, cfg.Shards)
	names := make([]string, cfg.Shards)
	byName := make(map[string]*shard, cfg.Shards)
	for i := range shards {
		names[i] = fmt.Sprintf("shard-%03d", i)
		shards[i] = &shard{
			name:    names[i],
			records: make(map[uint32]uint16),
			alive:   true,
		}
		if cfg.AdmitRate > 0 {
			shards[i].admit = scale.NewAdmitter(scale.AdmitterConfig{
				Rate:    cfg.AdmitRate,
				Burst:   cfg.AdmitBurst,
				Metrics: metrics,
			})
		}
		byName[names[i]] = shards[i]
	}
	ring := scale.NewRing(names, 0)
	router := scale.NewRouter(ring, metrics)

	nRegions := (cfg.Clients + regionSize - 1) / regionSize
	gws := make([]*gateway, nRegions)
	for i := range gws {
		first := uint32(i * regionSize)
		n := uint32(regionSize)
		if rem := uint32(cfg.Clients) - first; rem < n {
			n = rem
		}
		gws[i] = &gateway{
			region:  i,
			first:   first,
			clients: n,
			cursor:  uint32(rng.Intn(int(n) + 1)),
			oldest:  make(map[string]time.Time),
		}
	}

	var res Result
	res.Clients, res.Shards, res.Regions = cfg.Clients, cfg.Shards, nRegions

	// Reservoir-sampled decision latencies.
	const reservoir = 8192
	var lat []time.Duration
	var latSeen int64
	sample := func(d time.Duration) {
		if d > res.Max {
			res.Max = d
		}
		latSeen++
		if len(lat) < reservoir {
			lat = append(lat, d)
		} else if j := rng.Int63n(latSeen); j < reservoir {
			lat[j] = d
		}
	}

	// reportsPerTick: each gateway advances a rotating cursor so every
	// client reports exactly once per reportInterval, phase-spread across
	// the population.
	perTick := func(g *gateway) uint32 {
		n := uint64(g.clients) * uint64(flushInterval) / uint64(reportInterval)
		if n == 0 {
			n = 1
		}
		return uint32(n)
	}

	deliver := func(dest string, items []report) {
		if len(items) == 0 {
			return
		}
		now := eng.Now()
		g := gws[int(items[0].client)/regionSize]
		dst := byName[dest]
		if dst == nil || !dst.alive {
			// Owner dead: fail over along the ring successors of the
			// first report's key.
			dst = nil
			key := strconv.FormatUint(uint64(items[0].client), 10)
			for _, n := range router.Ring().Successors(key, cfg.Shards) {
				if s := byName[n]; s != nil && s.alive {
					dst = s
					break
				}
			}
			if dst == nil { // whole fleet dead: requeue everything
				for _, it := range items {
					g.buffer(dest, it, now, &res.Coalesced)
				}
				return
			}
			res.Failovers++
		}
		for i, it := range items {
			if dst.admit != nil {
				if err := dst.admit.Admit(it.pri); err != nil {
					// Shed: degraded success — requeue for a later tick,
					// mirroring DirShed's keep-working contract.
					res.Shed++
					g.buffer(dest, it, now, &res.Coalesced)
					continue
				}
			}
			dst.records[it.client]++
			dst.acked++
			res.Acked++
			sample(now.Sub(it.enq) + rtt + time.Duration(i+1)*serviceTime)
		}
	}

	// Gateway tick: generate this interval's reports, then flush aged
	// batches. First ticks are phase-staggered across the interval.
	var tick func(g *gateway)
	tick = func(g *gateway) {
		n := perTick(g)
		now := eng.Now()
		for i := uint32(0); i < n; i++ {
			c := g.first + (g.cursor+i)%g.clients
			key := strconv.FormatUint(uint64(c), 10)
			pri := scale.PriNorm
			switch c % 10 {
			case 0, 1:
				pri = scale.PriLow // applet/java fraction
			case 2, 3, 4:
				pri = scale.PriNorm
			default:
				pri = scale.PriHigh
			}
			res.Reports++
			// Arrival is jittered across the elapsed flush interval: the
			// tick collapses the interval's arrivals into one event, but
			// the clients did not all report at the tick instant.
			enq := now.Add(-time.Duration(rng.Int63n(int64(flushInterval))))
			dest := router.Ring().Lookup(key)
			if n := g.buffer(dest, report{client: c, pri: pri, enq: enq}, now, &res.Coalesced); n >= outbox.MaxBatch {
				delete(g.oldest, dest)
				deliver(dest, g.pending.Take(dest, n))
			}
		}
		g.cursor = (g.cursor + n) % g.clients
		for _, b := range g.aged(now, flushInterval/2) {
			deliver(b.Dest, b.Items)
		}
		eng.After(flushInterval, func() { tick(g) })
	}
	for i, g := range gws {
		g := g
		offset := flushInterval * time.Duration(i) / time.Duration(nRegions)
		eng.Schedule(eng.Now().Add(offset), func() { tick(g) })
	}

	if cfg.KillAt > 0 && cfg.KillShard >= 0 && cfg.KillShard < len(shards) {
		victim := shards[cfg.KillShard]
		eng.After(cfg.KillAt, func() { victim.alive = false })
		eng.After(cfg.KillAt+reshardAfter, func() {
			router.SetRing(router.Ring().Remove(victim.name))
		})
	}

	res.Events = eng.Run(time.Unix(0, 0).UTC().Add(cfg.Duration))

	// Drain: what is still buffered is pending, not lost; what a newer
	// report for the same client absorbed is coalesced, not lost.
	for _, g := range gws {
		res.Pending += int64(g.pending.Len())
	}
	res.Lost = res.Reports - res.Acked - res.Pending - res.Coalesced
	// Shed rate is per delivery attempt: a requeued report that is shed
	// again on retry counts each time, so the rate reflects sustained
	// pressure, not unique clients.
	if res.Acked+res.Shed > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Acked+res.Shed)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		res.P50 = lat[len(lat)/2]
		res.P95 = lat[len(lat)*95/100]
	}

	var sum int64
	for _, s := range shards {
		if n := len(s.records); n > res.MaxShardRecords {
			res.MaxShardRecords = n
		}
		sum += int64(len(s.records))
	}
	res.MeanShardRecords = float64(sum) / float64(len(shards))

	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if msAfter.HeapAlloc > msBefore.HeapAlloc {
		res.HeapBytes = msAfter.HeapAlloc - msBefore.HeapAlloc
	}
	res.HeapPerClient = float64(res.HeapBytes) / float64(cfg.Clients)

	flat, hier := scale.GossipTraffic(cfg.Clients, regionSize)
	res.GossipFlat, res.GossipHier = float64(flat), float64(hier)
	res.RingVersion = router.Ring().Version
	res.VirtualSeconds = cfg.Duration.Seconds()

	// keep the shard slice alive past the final memstats read so the
	// resident-state measurement includes it
	runtime.KeepAlive(shards)
	return res
}
