package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"everyware/internal/core"
	"everyware/internal/gossip"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/wire"
)

// Fleet shape shared by every workload that runs on a core.Deployment:
// the constellation ROADMAP item 1 names, controller and observatory off.
const (
	fleetGossips = 3
	fleetScheds  = 3
	fleetPStates = 3
	// fleetComponents is how many components drive a deployment workload,
	// each routed to a shard of its own.
	fleetComponents = 2
)

// setupTimeout bounds every wait-for-condition in set-up. Set-up normally
// takes well under a second; hitting this means the fleet never converged.
const setupTimeout = 20 * time.Second

// scratch is the benchmark's temporary storage: pstate directories live
// under tmpfs when the machine has one (on the sandbox's virtio disk a
// checkpoint is 90% fsync, which measures the VM and not the program) and
// under the checkout otherwise; disk is always under the checkout and
// feeds the pstate.store_at_disk.us probe, the fsync the tmpfs choice hides.
type scratch struct {
	tmp, disk string
	tmpFS     string // filesystem type of tmp, for the fingerprint
}

func newScratch() (*scratch, error) {
	parent := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	disk, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	s := &scratch{tmp: disk, disk: disk}
	if fsType("/dev/shm") == "tmpfs" {
		if tmp, err := os.MkdirTemp("/dev/shm", "ew-bench-"); err == nil {
			s.tmp = tmp
		}
	}
	s.tmpFS = fsType(s.tmp)
	return s, nil
}

func (s *scratch) Close() {
	os.RemoveAll(s.tmp)
	os.RemoveAll(s.disk)
}

// fsType names the filesystem holding path ("tmpfs", "ext4", or the magic
// number in hex for anything less common).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch int64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fleet is one workload's running system: the daemons, the components or
// holders driving them, and every public telemetry registry, so the
// traced run can diff Metrics() snapshots without reaching inside.
type fleet struct {
	dep        *core.Deployment
	gossips    []*gossip.Server // the quiet pool of gossip-mem
	comps      []*core.Component
	shardOf    []int // comps[i] routes to dep.Schedulers()[shardOf[i]]
	closers    []func()
	registries registries

	base    fleetCounts // taken by mark
	drainMS float64     // last op → logsvc caught up, measured by drainLog
}

// fleetCounts is what the daemons' public accessors say at one instant;
// the oracles and the per-layer table work on differences of two.
type fleetCounts struct {
	shardReports []int64 // sched.Server.Stats, per shard
	migrations   int64
	logged       int64 // logsvc entries accepted: appended + dropped by the file quota
	ringDropped  int64 // logsvc entries evicted from the full in-memory ring
	shed         int64 // reports a shard refused (sched.client.report.shed)
	failovers    int64 // reports that only landed on an alternate shard
	intOps       int64 // Runner.Ops, the paper's useful integer operations
}

func (f *fleet) counts() fleetCounts {
	var c fleetCounts
	if f.dep == nil {
		return c
	}
	for _, s := range f.dep.Schedulers() {
		n, m, _ := s.Stats()
		c.shardReports = append(c.shardReports, n)
		c.migrations += m
	}
	d := f.dep.LogServer().StatsDetail()
	c.logged, c.ringDropped = d.Appended+d.FileDropped, d.RingDropped
	c.shed = f.clientCounter("sched.client.report.shed")
	c.failovers = f.clientCounter("sched.client.failover")
	for _, comp := range f.comps {
		c.intOps += comp.Runner().Ops().Total()
	}
	return c
}

// mark snapshots the counts before a timed phase starts. It first waits
// for the log forwards of earlier reports to land — each runs in its own
// goroutine off the reply path, so a few outlive the warm-up's last op and
// would otherwise be counted into the phase.
func (f *fleet) mark() {
	_ = waitFor("the warm-up's log forwards to drain", func() bool {
		c := f.counts()
		var reports int64
		for _, n := range c.shardReports {
			reports += n
		}
		return c.logged >= reports
	})
	f.base = f.counts()
}

// sinceMark returns the counts accumulated since mark.
func (f *fleet) sinceMark() fleetCounts {
	c := f.counts()
	for j := range c.shardReports {
		c.shardReports[j] -= f.base.shardReports[j]
	}
	c.migrations -= f.base.migrations
	c.logged -= f.base.logged
	c.ringDropped -= f.base.ringDropped
	c.shed -= f.base.shed
	c.failovers -= f.base.failovers
	c.intOps -= f.base.intOps
	return c
}

// drainLog waits until the logging server has accepted want entries since
// mark — each report's forward runs in its own goroutine off the reply
// path, so a backlog outlives the last op — records how long that took,
// and returns how many it accepted.
func (f *fleet) drainLog(want int64) int64 {
	start := time.Now()
	_ = waitFor("the log forwards to drain", func() bool { return f.sinceMark().logged >= want })
	f.drainMS = float64(time.Since(start)) / 1e6
	return f.sinceMark().logged
}

// fleetEnd is what the per-layer table reads off a fleet after a timed
// phase, before Close.
type fleetEnd struct {
	fleetCounts
	digestMismatch int
	spooled        int64
	drainMS        float64
}

func (f *fleet) end() fleetEnd {
	return fleetEnd{
		fleetCounts:    f.sinceMark(),
		digestMismatch: f.digestMismatches(),
		spooled:        f.clientCounter("core.checkpoint.spooled"),
		drainMS:        f.drainMS,
	}
}

// clientCounter sums a counter over the components' registries.
func (f *fleet) clientCounter(name string) int64 {
	var v int64
	for _, c := range f.comps {
		v += c.Metrics().Snapshot(name).Value(name)
	}
	return v
}

// digestMismatches counts persistent state replicas whose digest differs
// from replica 0's.
func (f *fleet) digestMismatches() int {
	if f.dep == nil {
		return 0
	}
	ps := f.dep.PStates()
	ref := ps[0].Digest()
	n := 0
	for _, p := range ps[1:] {
		if !pstate.DigestsEqual(ref, p.Digest()) {
			n++
		}
	}
	return n
}

func (f *fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// deployOpts is what differs between the three deployment workloads,
// beyond the transport and search problem their workloadDef names.
type deployOpts struct {
	// pstates wires the components to the persistent state quorum;
	// report-tcp leaves it off so a solved N=17 unit does not drag a
	// quorum checkpoint and a log line into the report cycle.
	pstates bool
	share   bool // set EliteShareKey and WorkCheckpointKey (the shipped app)
}

// startDeployment boots the constellation and its components and returns
// once the system is in the state the clock may start from: every
// component holds the scheduler ring and has adopted its first work unit.
func startDeployment(wl workloadDef, env runEnv, o deployOpts) (*fleet, error) {
	dirs := make([]string, fleetPStates)
	for i := range dirs {
		dirs[i] = filepath.Join(env.dir, fmt.Sprintf("ps%d", i))
	}
	dep, err := core.StartDeployment(core.DeploymentConfig{
		Gossips:         fleetGossips,
		Schedulers:      fleetScheds,
		N:               wl.n,
		K:               wl.k,
		Heuristics:      []ramsey.Heuristic{ramsey.HeurMinConflicts},
		StepsPerCycle:   wl.steps,
		PStateDir:       dirs[0],
		ExtraPStateDirs: dirs[1:],
		Transport:       env.transport(wl),
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{dep: dep}
	f.closers = append(f.closers, dep.Close)
	for _, s := range dep.Schedulers() {
		f.registries = append(f.registries, s.Metrics())
	}
	for _, g := range dep.GossipServers() {
		f.registries = append(f.registries, g.Metrics())
	}
	for _, p := range dep.PStates() {
		f.registries = append(f.registries, p.Metrics())
	}

	// The ring hashes the shards' ephemeral ports, so a fixed component ID
	// lands on a different shard every run — and which shard a component
	// shares decides its heuristic and its allocation count. Probe the
	// published ring for IDs that put component i on the i-th shard in
	// sorted order instead.
	ring := dep.Ring()
	scheds := dep.Schedulers()
	for i := 0; i < fleetComponents; i++ {
		want := ring.Nodes[i%len(ring.Nodes)]
		id := ""
		for try := 0; id == ""; try++ {
			cand := fmt.Sprintf("bench-s%d-c%d-%d", env.seed, i, try)
			if ring.Lookup(cand) == want {
				id = cand
			}
		}
		shard := -1
		for j, s := range scheds {
			if s.Addr() == want {
				shard = j
			}
		}
		cfg := dep.NewComponentConfig(id, "unix")
		if !o.pstates {
			cfg.PStates = nil
		}
		if o.share {
			cfg.EliteShareKey = "bench/elite"
			cfg.WorkCheckpointKey = "bench/work/" + id
		}
		c := core.NewComponent(cfg)
		if _, err := c.Start(); err != nil {
			f.Close()
			return nil, fmt.Errorf("component %s: %w", id, err)
		}
		f.closers = append(f.closers, c.Close)
		f.comps = append(f.comps, c)
		f.shardOf = append(f.shardOf, shard)
		f.registries = append(f.registries, c.Metrics())
	}

	// Before the ring arrives every report goes to the first listed shard
	// and is re-issued on the WorkID mismatch after it lands; neither
	// belongs in a timed window. Drive the gossip rounds by hand so the
	// wait is a property of the code and not of where the 200 ms tick fell.
	err = waitFor("every component to hold the scheduler ring", func() bool {
		for _, g := range dep.GossipServers() {
			g.SyncRound()
		}
		for _, c := range f.comps {
			if r := c.Runner().Router().Ring(); r == nil || len(r.Nodes) != fleetScheds {
				return false
			}
		}
		return true
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	// First contact: fetch the start-up work unit from the owning shard.
	for _, c := range f.comps {
		if n, err := c.RunCycles(1); err != nil || n != 1 {
			f.Close()
			return nil, fmt.Errorf("component %s first contact: n=%d err=%v", c.Addr(), n, err)
		}
	}
	return f, nil
}

// gossipHolders is the number of components tracking the gossip-mem key.
const gossipHolders = 16

// gossipKey is the one replicated key of gossip-mem.
const gossipKey = "bench/state"

// gossipFleet is the gossip-mem system: a quiet three-member pool plus the
// holder agents, on a transport that can hold server replies back (see
// gossipInstance.Prime).
type gossipFleet struct {
	*fleet
	holders []*gossip.Agent
	slow    *slowReplies
}

// slowReplies is a transport whose accepted connections hold every write
// back by delay while it is non-zero, so the server side of each call
// answers that much later.
type slowReplies struct {
	wire.Transport
	delay atomic.Int64 // ns
}

func (t *slowReplies) Listen(addr string) (net.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &slowListener{Listener: l, t: t}, nil
}

type slowListener struct {
	net.Listener
	t *slowReplies
}

func (l *slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowConn{Conn: c, t: l.t}, nil
}

type slowConn struct {
	net.Conn
	t *slowReplies
}

func (c *slowConn) Write(p []byte) (int, error) {
	if d := c.t.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return c.Conn.Write(p)
}

// startGossipFleet builds the pool straight from gossip.ServerConfig:
// core.DeploymentConfig ties the clique heartbeat to SyncInterval, and
// this workload needs a live clique whose background rounds never fire,
// so that every synchronization in a timed window is one the driver asked
// for. wrap, when not nil, decorates the transport (the T wrapper).
func startGossipFleet(inner wire.Transport, wrap func(wire.Transport) wire.Transport) (*gossipFleet, error) {
	f := &fleet{}
	gf := &gossipFleet{fleet: f, slow: &slowReplies{Transport: inner}}
	var tr wire.Transport = gf.slow
	if wrap != nil {
		tr = wrap(tr)
	}
	var addrs []string
	for i := 0; i < fleetGossips; i++ {
		g := gossip.NewServer(gossip.ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			WellKnown:    append([]string(nil), addrs...),
			SyncInterval: time.Hour,
			Heartbeat:    20 * time.Millisecond,
			Transport:    tr,
		})
		addr, err := g.Start()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("gossip %d: %w", i, err)
		}
		f.closers = append(f.closers, g.Close)
		f.gossips = append(f.gossips, g)
		f.registries = append(f.registries, g.Metrics())
		addrs = append(addrs, addr)
	}
	err := waitFor("the gossip pool to form one clique", func() bool {
		for _, g := range f.gossips {
			if len(g.PoolView().Members) != fleetGossips {
				return false
			}
		}
		return true
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	for i := 0; i < gossipHolders; i++ {
		svc := wire.NewService(wire.ServiceConfig{
			Name:       "holder",
			ListenAddr: "127.0.0.1:0",
			Transport:  tr,
			Silent:     true,
		})
		addr, err := svc.Start()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("holder %d: %w", i, err)
		}
		f.closers = append(f.closers, func() { svc.Close() })
		f.registries = append(f.registries, svc.Metrics())
		a := gossip.NewAgent(svc.Server(), addr)
		if err := a.Track(gossipKey, gossip.CmpCounter, nil); err != nil {
			f.Close()
			return nil, err
		}
		if err := a.Register(svc.Client(), addrs[i%len(addrs)], gossipKey, gossip.CmpCounter, 2*time.Second); err != nil {
			f.Close()
			return nil, fmt.Errorf("holder %d register: %w", i, err)
		}
		gf.holders = append(gf.holders, a)
	}
	// Registrations reach the other pool members through the share
	// coalescer; the key's responsible gossip must know all of them before
	// a round can be expected to reach every holder.
	err = waitFor("registration shares to flush", func() bool {
		for _, g := range f.gossips {
			if len(g.Registrations()) != gossipHolders {
				return false
			}
		}
		return true
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return gf, nil
}

// waitFor polls cond until it holds. It is used only in set-up, where the
// condition is a convergence the daemons reach on their own.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(setupTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}
