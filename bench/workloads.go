package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"everyware/internal/core"
	"everyware/internal/pstate"
	"everyware/internal/wire"
)

// worker runs one component's (or the gossip writer's) i-th operation,
// waits for the result and checks it. Components are callers that wait
// for their directive, so the loop is closed: the driver asks for the next
// op only when this one has returned. sl is nil on untraced runs.
type worker func(i uint64, sl *spanLog) error

// instance is one workload's running system plus its oracles.
type instance interface {
	Workers() []worker
	// Prime puts the system into the state the warm-up may start from; it
	// runs once, on the fleet that is measured, and is not part of set-up.
	Prime()
	// Verify runs the end-of-phase oracles over the ops each worker issued
	// since Fleet().mark() and returns one error per violated invariant.
	Verify(issued []int64) []error
	Fleet() *fleet
	Close()
}

// workloadDef is one row of the benchmark. The why of each workload lives
// in BENCHMARK.json and bench/README.md.
type workloadDef struct {
	name      string
	transport string // "tcp" or "mem", for the fingerprint
	// n, k and steps are the search problem the P probes reuse, so a probe
	// times the layer on the workload's own inputs.
	n, k  int
	steps int64
	start func(wl workloadDef, env runEnv) (instance, error)
}

// runEnv is what a workload's start needs from the run.
type runEnv struct {
	seed int64
	// wrap decorates the transport (the T wrapper on traced runs).
	wrap     func(wire.Transport) wire.Transport
	forceMem bool
	dir      string // a fresh directory on the scratch filesystem
	// primeDelay is how long gossip-mem's Prime holds each reply back.
	primeDelay time.Duration
}

// bare builds the workload's transport for one fleet, undecorated.
func (e runEnv) bare(wl workloadDef) wire.Transport {
	if wl.transport == "mem" || e.forceMem {
		return wire.NewMemTransport()
	}
	return wire.TCP
}

// transport is bare, decorated by wrap.
func (e runEnv) transport(wl workloadDef) wire.Transport {
	tr := e.bare(wl)
	if e.wrap != nil {
		tr = e.wrap(tr)
	}
	return tr
}

var workloads = []workloadDef{
	{name: "report-tcp", transport: "tcp", n: 17, k: 4, steps: 1, start: startReportTCP},
	{name: "ckpt-mem", transport: "mem", n: 17, k: 4, steps: 1, start: startCkptMem},
	{name: "gossip-mem", transport: "mem", n: 17, k: 4, steps: 1, start: startGossipMem},
	{name: "grid-app", transport: "tcp", n: 42, k: 5, steps: 10, start: startGridApp},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	blobSize  = 4096 // checkpoint payload
	blobClass = "bench/blob"
	// ckptEvery is how often a grid-app op adds a checkpoint.
	ckptEvery = 8
)

// cycleInstance serves report-tcp and grid-app: the op is one
// Component.RunCycles(1), optionally with a checkpoint on every 8th.
type cycleInstance struct {
	f       *fleet
	ckpt    bool
	payload [][]byte // one reusable checkpoint buffer per worker
}

func startReportTCP(wl workloadDef, env runEnv) (instance, error) {
	f, err := startDeployment(wl, env, deployOpts{})
	if err != nil {
		return nil, err
	}
	return &cycleInstance{f: f}, nil
}

func startGridApp(wl workloadDef, env runEnv) (instance, error) {
	f, err := startDeployment(wl, env, deployOpts{pstates: true, share: true})
	if err != nil {
		return nil, err
	}
	in := &cycleInstance{f: f, ckpt: true}
	rng := rand.New(rand.NewSource(env.seed))
	for range f.comps {
		p := make([]byte, blobSize)
		rng.Read(p)
		in.payload = append(in.payload, p)
	}
	return in, nil
}

func (in *cycleInstance) Fleet() *fleet { return in.f }
func (in *cycleInstance) Close()        { in.f.Close() }
func (in *cycleInstance) Prime()        {}

func (in *cycleInstance) Workers() []worker {
	ws := make([]worker, len(in.f.comps))
	for w, c := range in.f.comps {
		w, c := w, c
		name := fmt.Sprintf("bench/grid/c%d", w)
		ws[w] = func(i uint64, sl *spanLog) error {
			root := sl.begin("op", i, 0)
			defer sl.end(root)
			sp := sl.begin("core.run_cycle", i, root)
			n, err := c.RunCycles(1)
			sl.end(sp)
			if err != nil || n != 1 {
				return fmt.Errorf("RunCycles: n=%d err=%v", n, err)
			}
			// RunCycles hides the directive; Stop is the only kind that
			// leaves a mark, and shed reports are counted by Verify.
			if c.Runner().Stopped() {
				return fmt.Errorf("component %d was told to stop", w)
			}
			if in.ckpt && i%ckptEvery == 0 {
				binary.BigEndian.PutUint64(in.payload[w], i)
				sp := sl.begin("core.checkpoint", i, root)
				err := c.Checkpoint(name, blobClass, in.payload[w])
				sl.end(sp)
				if err != nil {
					return fmt.Errorf("Checkpoint: %w", err)
				}
			}
			return nil
		}
	}
	return ws
}

func (in *cycleInstance) Verify(issued []int64) []error {
	var errs []error
	var total int64
	for _, n := range issued {
		total += n
	}
	// Report conservation: every cycle is exactly one report, and it lands
	// on the shard the ring assigns its component and nowhere else. The one
	// exception the system allows is a report whose reply missed its
	// (forecast-driven, never under 100 ms) time-out: it is sent again to
	// the next shard and may be handled twice. Delivery is at least once, so
	// such a run is still correct, and it shows in sched.client.failovers.
	// The runner then stays with the alternate shard (Runner.report keeps
	// curSched), so from that report on the split between shards is no
	// longer the ring's: the per-shard check applies to runs without a
	// fail-over, the total below to every run.
	d := in.f.sinceMark()
	var handled int64
	for j, n := range d.shardReports {
		handled += n
		var want int64
		for w, s := range in.f.shardOf {
			if s == j {
				want += issued[w]
			}
		}
		if n != want && d.failovers == 0 {
			errs = append(errs, fmt.Errorf("shard %d handled %d reports, its components issued %d", j, n, want))
		}
	}
	if handled < total || handled > total+d.failovers {
		errs = append(errs, fmt.Errorf("shards handled %d reports, components issued %d with %d fail-overs", handled, total, d.failovers))
	}
	if d.shed != 0 {
		errs = append(errs, fmt.Errorf("%d reports were shed; every directive must be Continue or NewWork", d.shed))
	}
	// Every report is forwarded to the logging server off the reply path,
	// one goroutine each; wait for that backlog and time it.
	if logged := in.f.drainLog(handled); logged != handled {
		errs = append(errs, fmt.Errorf("logsvc appended+dropped %d entries for %d reports handled", logged, handled))
	}
	if in.ckpt {
		errs = append(errs, in.f.pstateOracles()...)
	}
	return errs
}

// pstateOracles checks what every checkpointing workload promises at the
// end: no checkpoint was parked in the write-behind spool, and the three
// replicas hold identical state.
func (f *fleet) pstateOracles() []error {
	var errs []error
	if n := f.clientCounter("core.checkpoint.spooled"); n != 0 {
		errs = append(errs, fmt.Errorf("%d checkpoints were spooled", n))
	}
	if n := f.digestMismatches(); n != 0 {
		errs = append(errs, fmt.Errorf("%d replicas disagree with replica 0's digest", n))
	}
	return errs
}

// ckptObjects is how many objects each ckpt-mem component owns.
const ckptObjects = 64

// ckptInstance is ckpt-mem: each worker owns 64 named 4 KiB objects and
// draws 1 Checkpoint : 6 Recover from the seed.
type ckptInstance struct {
	f       *fleet
	workers []*ckptWorker
}

type ckptWorker struct {
	c     *core.Component
	rng   *rand.Rand
	names []string
	acked []uint64 // last acknowledged sequence per name
	buf   []byte
}

// ckptHeader is (sequence, CRC of the body); the name travels in the
// object itself.
const ckptHeader = 8 + 4

// fill writes a payload carrying sequence seq into w.buf. Only the first
// body word varies with seq, so building a payload costs the same every op.
func (w *ckptWorker) fill(seq uint64) []byte {
	binary.BigEndian.PutUint64(w.buf[0:], seq)
	binary.BigEndian.PutUint64(w.buf[ckptHeader:], seq)
	binary.BigEndian.PutUint32(w.buf[8:], crc32.ChecksumIEEE(w.buf[ckptHeader:]))
	return w.buf
}

// check verifies a recovered object against the last acknowledged write.
func (w *ckptWorker) check(j int, o *pstate.Object) error {
	if o.Name != w.names[j] || len(o.Data) != blobSize {
		return fmt.Errorf("recovered %q (%d bytes), want %q (%d bytes)", o.Name, len(o.Data), w.names[j], blobSize)
	}
	if crc32.ChecksumIEEE(o.Data[ckptHeader:]) != binary.BigEndian.Uint32(o.Data[8:]) {
		return fmt.Errorf("%s: payload checksum mismatch", o.Name)
	}
	if seq := binary.BigEndian.Uint64(o.Data[0:]); seq != w.acked[j] {
		return fmt.Errorf("%s: recovered sequence %d, last acknowledged %d", o.Name, seq, w.acked[j])
	}
	return nil
}

func startCkptMem(wl workloadDef, env runEnv) (instance, error) {
	f, err := startDeployment(wl, env, deployOpts{pstates: true})
	if err != nil {
		return nil, err
	}
	in := &ckptInstance{f: f}
	for i, c := range f.comps {
		w := &ckptWorker{
			c:     c,
			rng:   rand.New(rand.NewSource(env.seed*2 + int64(i))),
			acked: make([]uint64, ckptObjects),
			buf:   make([]byte, blobSize),
		}
		w.rng.Read(w.buf)
		for j := 0; j < ckptObjects; j++ {
			w.names = append(w.names, fmt.Sprintf("bench/ckpt/c%d/o%02d", i, j))
			w.acked[j] = 1
			if err := c.Checkpoint(w.names[j], blobClass, w.fill(1)); err != nil {
				f.Close()
				return nil, fmt.Errorf("preload %s: %w", w.names[j], err)
			}
		}
		in.workers = append(in.workers, w)
	}
	return in, nil
}

func (in *ckptInstance) Fleet() *fleet { return in.f }
func (in *ckptInstance) Close()        { in.f.Close() }
func (in *ckptInstance) Prime()        {}

func (in *ckptInstance) Workers() []worker {
	ws := make([]worker, len(in.workers))
	for k, w := range in.workers {
		w := w
		ws[k] = func(i uint64, sl *spanLog) error {
			root := sl.begin("op", i, 0)
			defer sl.end(root)
			j := w.rng.Intn(ckptObjects)
			if w.rng.Intn(7) == 0 {
				seq := w.acked[j] + 1
				sp := sl.begin("core.checkpoint", i, root)
				err := w.c.Checkpoint(w.names[j], blobClass, w.fill(seq))
				sl.end(sp)
				if err != nil {
					return fmt.Errorf("Checkpoint: %w", err)
				}
				w.acked[j] = seq
				return nil
			}
			sp := sl.begin("core.recover", i, root)
			o, err := w.c.Recover(w.names[j])
			sl.end(sp)
			if err != nil {
				return fmt.Errorf("Recover: %w", err)
			}
			return w.check(j, o)
		}
	}
	return ws
}

func (in *ckptInstance) Verify([]int64) []error { return in.f.pstateOracles() }

// gossipValue is the size of the value gossip-mem replicates.
const gossipValue = 256

// gossipInstance is gossip-mem: one fixed writer (agent counters are
// per-agent, so a second writer's Set would lose by design), one driver.
type gossipInstance struct {
	gf         *gossipFleet
	val        []byte
	primeDelay time.Duration
	// pollFails is the pool's gossip.poll.fail total when an op last looked.
	pollFails int64
}

func startGossipMem(wl workloadDef, env runEnv) (instance, error) {
	gf, err := startGossipFleet(env.bare(wl), env.wrap)
	if err != nil {
		return nil, err
	}
	in := &gossipInstance{gf: gf, val: make([]byte, gossipValue), primeDelay: env.primeDelay}
	rand.New(rand.NewSource(env.seed)).Read(in.val)
	return in, nil
}

func (in *gossipInstance) Fleet() *fleet          { return in.gf.fleet }
func (in *gossipInstance) Close()                 { in.gf.Close() }
func (in *gossipInstance) Verify([]int64) []error { return nil }

// gossipPrimeDelay is how long Prime holds each reply of the first round
// in a real run: 31 calls, so 1.6 s per fleet.
const gossipPrimeDelay = 50 * time.Millisecond

// Prime pins which predictor the pool's time-out forecasters settle on.
// Every poll and push reads a forecast, the forecast names its winning
// predictor, and a name costs 0 to 3 allocations depending on the
// predictor. Left alone, the winner of each of the 31 selectors is decided
// by which of 17 near-tied predictors happened to be closest when the
// machine last stalled a call, and allocs_per_op wanders between 206 and
// 268 from run to run. Prime makes the first response time each selector
// sees a slow one: last_value is then ahead of every other predictor by
// 0.07 × delay², which only a later stall of about 0.4 × delay on that one
// holder overturns, and names itself without allocating. The time-outs it
// yields are the policy's 100 ms floor, as they are for every predictor.
func (in *gossipInstance) Prime() {
	in.gf.slow.delay.Store(int64(in.primeDelay))
	in.gf.holders[0].Set(gossipKey, in.val)
	for _, g := range in.gf.gossips {
		g.SyncRound()
	}
	in.gf.slow.delay.Store(0)
}

// pollFailed reports whether a poll or push has failed since it last
// looked.
func (in *gossipInstance) pollFailed() bool {
	var n int64
	for _, g := range in.gf.gossips {
		n += g.Metrics().Snapshot("gossip.poll.fail").Value("gossip.poll.fail")
	}
	failed := n != in.pollFails
	in.pollFails = n
	return failed
}

func (in *gossipInstance) Workers() []worker {
	writer := in.gf.holders[0]
	return []worker{func(i uint64, sl *spanLog) error {
		root := sl.begin("op", i, 0)
		defer sl.end(root)
		binary.BigEndian.PutUint64(in.val, i)
		sp := sl.begin("gossip.agent_set", i, root)
		st := writer.Set(gossipKey, in.val)
		sl.end(sp)
		// Only the key's responsible gossip does work; the driver does not
		// know (or care) which one the clique's hash picked, so the span
		// is one synchronization pass over the whole pool. One pass is
		// what it takes. The service's promise, when a poll or push missed
		// its time-out (the shared box does stall a process for 100 ms now
		// and then), is that the version spreads on a following round, so
		// a further pass is allowed only after a pass in which
		// gossip.poll.fail rose; holders that lag without one fail the op.
		for pass := 1; ; pass++ {
			sp = sl.begin("gossip.sync_round", i, root)
			for _, g := range in.gf.gossips {
				g.SyncRound()
			}
			sl.end(sp)
			var lagging error
			for h, a := range in.gf.holders {
				if got, _ := a.Get(gossipKey); got.Counter != st.Counter {
					lagging = fmt.Errorf("holder %d has counter %d after %d passes, want %d", h, got.Counter, pass, st.Counter)
					break
				}
			}
			if lagging == nil || pass == gossipPasses || !in.pollFailed() {
				return lagging
			}
		}
	}}
}

// gossipPasses is the most synchronization passes an op may take.
const gossipPasses = 3
