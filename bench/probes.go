package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/gossip"
	"everyware/internal/logsvc"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// The P probes time one layer's public function in isolation, on the
// workload's own inputs, after the traced run. They give the per-call
// cost the share.* model multiplies by the calls per op the M and T
// counts give.

const (
	// probeCalls is how many calls a probe makes when the function is
	// cheap enough; probeBudget stops it sooner when it is not (a ramsey
	// step at N=42 is 2.4 ms), so the probes fit the run's time.
	probeCalls  = 10000
	probeBudget = 200 * time.Millisecond
	probeBatch  = 50 // calls between clock reads
)

// prober times functions under one time budget per function.
type prober struct{ budget time.Duration }

// probe returns fn's time per call in µs and its allocations per call.
// The time is that of the least disturbed tenth of the batches (see
// quietLow): a probe runs for milliseconds, and a neighbour on the machine
// would otherwise decide what share.* says.
func (p prober) probe(fn func()) (us, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batches := make([]float64, 0, probeCalls/probeBatch)
	start := time.Now()
	for t0 := start; len(batches) < cap(batches) && (len(batches) == 0 || t0.Sub(start) < p.budget); {
		for i := 0; i < probeBatch; i++ {
			fn()
		}
		t1 := time.Now()
		batches = append(batches, float64(t1.Sub(t0))/1e3/probeBatch)
		t0 = t1
	}
	runtime.ReadMemStats(&m1)
	return quietLow(batches), float64(m1.Mallocs-m0.Mallocs) / float64(len(batches)*probeBatch)
}

// runProbes fills the P metrics. tr is the workload's (unwrapped)
// transport kind; sc provides the tmpfs and real-disk directories.
func runProbes(wl workloadDef, seed int64, sc *scratch, budget time.Duration, set func(name string, v float64)) error {
	rng := rand.New(rand.NewSource(seed))
	probe := prober{budget}.probe

	// wire: one Ping round trip on the workload's transport.
	var tr wire.Transport = wire.TCP
	if wl.transport == "mem" {
		tr = wire.NewMemTransport()
	}
	echo := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: tr, Silent: true})
	addr, err := echo.Start()
	if err != nil {
		return fmt.Errorf("probe echo service: %w", err)
	}
	var pingErr error
	us, _ := probe(func() {
		if _, err := echo.Client().Ping(addr, 2*time.Second); err != nil {
			pingErr = err
		}
	})
	echo.Close()
	if pingErr != nil {
		return fmt.Errorf("probe ping: %w", pingErr)
	}
	set("wire.echo_rtt.us", us)

	// ramsey: one search step and one state encode+decode at the
	// workload's problem size. A step's cost depends on where the search
	// stands (a fresh random coloring has the most conflicts to count), so
	// the probe also reports the useful integer operations per step — the
	// paper's unit — and the share model prices the run's own operation
	// count with it rather than assuming the probe's steps are typical.
	ops := &ramsey.OpCounter{}
	searcher, err := ramsey.NewSearcher(ramsey.SearchConfig{
		N: wl.n, K: wl.k, Heuristic: ramsey.HeurMinConflicts, Seed: seed,
	}, ops)
	if err != nil {
		return err
	}
	searcher.Run(probeBatch) // leave the random start behind
	start := searcher.Current()
	ops.Reset()
	steps := 0
	us, allocs := probe(func() {
		steps++
		if searcher.Step() {
			// Solved (N=17 does): keep stepping from the start state so
			// every call is a real step.
			_ = searcher.Restore(start)
		}
	})
	set("ramsey.step.us", us)
	set("ramsey.step.allocs", allocs)
	set("ramsey.step.int_ops", float64(ops.Total())/float64(steps))
	state := searcher.Current().Encode()
	var codecErr error
	us, _ = probe(func() {
		col, err := ramsey.DecodeColoring(state)
		if err != nil {
			codecErr = err
			return
		}
		state = col.Encode()
	})
	if codecErr != nil {
		return fmt.Errorf("probe coloring codec: %w", codecErr)
	}
	set("ramsey.state_codec.us", us)

	// sched: Server.Handle on a continuing report carrying that state, and
	// the report+directive codec round trip.
	srv := sched.NewServer(sched.ServerConfig{
		N: wl.n, K: wl.k, DefaultSteps: wl.steps,
		Heuristics: []ramsey.Heuristic{ramsey.HeurMinConflicts},
	})
	first := srv.Handle(sched.Report{ClientID: "probe", Infra: "unix"})
	rep := sched.Report{
		ClientID: "probe", Infra: "unix", WorkID: first.Work.ID,
		Ops: 5000, ElapsedSec: 0.0001, Conflicts: 7, Iterations: 1, State: state,
	}
	var dir sched.Directive
	us, _ = probe(func() {
		rep.Iterations++
		rep.Ops = 4000 + rng.Int63n(2000) // a rate series, as the forecast probe's
		dir = srv.Handle(rep)
	})
	srv.Close()
	if dir.Kind != sched.DirContinue {
		return fmt.Errorf("probe sched.Handle: directive %d, want continue", dir.Kind)
	}
	set("sched.handle.us", us)
	us, _ = probe(func() {
		r, err := sched.DecodeReport(sched.EncodeReport(rep))
		if err != nil {
			codecErr = err
		}
		d, err := sched.DecodeDirective(sched.EncodeDirective(dir))
		if err != nil {
			codecErr = err
		}
		rep.Ops, dir.Steps = r.Ops, d.Steps
	})
	if codecErr != nil {
		return fmt.Errorf("probe sched codec: %w", codecErr)
	}
	set("sched.codec.us", us)

	// scale: routing one client key over a three-shard ring.
	router := scale.NewRouter(scale.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 0), nil)
	routed := 0
	us, _ = probe(func() { routed += len(router.Route("bench-client", 3)) })
	if routed == 0 {
		return fmt.Errorf("probe scale.Route returned no shards")
	}
	set("scale.route.us", us)

	// forecast: what sched does per report (Record) and per migration
	// decision (Forecast), on a rate series.
	fc := forecast.NewRegistry()
	key := forecast.Key{Resource: "probe", Event: "rate"}
	us, _ = probe(func() { fc.Record(key, 4e7+rng.Float64()*1e6) })
	set("forecast.record.us", us)
	ok := true
	us, _ = probe(func() { _, ok = fc.Forecast(key) })
	if !ok {
		return fmt.Errorf("probe forecast.Forecast: no forecast after %d records", probeCalls)
	}
	set("forecast.forecast.us", us)

	// logsvc: appending the perf line a report forwards.
	ls, err := logsvc.NewServer(logsvc.ServerConfig{ListenAddr: "127.0.0.1:0", Transport: wire.NewMemTransport()})
	if err != nil {
		return err
	}
	en := logsvc.Entry{Source: "probe", Level: "perf", Line: "infra=unix ops=5000 rate=50000000.0 conflicts=7"}
	us, _ = probe(func() { en.Unix++; ls.Append(en) })
	ls.Close()
	set("logsvc.append.us", us)

	// pstate: the replica-plane write and read one Checkpoint fans out,
	// in process; then the same write with the directory on the real disk.
	blob := make([]byte, blobSize)
	rng.Read(blob)
	for _, p := range []struct{ metric, dir string }{
		{"pstate.store_at.us", filepath.Join(sc.tmp, "probe")},
		{"pstate.store_at_disk.us", filepath.Join(sc.disk, "probe-disk")},
	} {
		ps, err := pstate.NewServer(pstate.ServerConfig{ListenAddr: "127.0.0.1:0", Dir: p.dir, Transport: wire.NewMemTransport()})
		if err != nil {
			return err
		}
		obj := &pstate.Object{Name: "bench/probe", Class: blobClass, Data: blob}
		var storeErr error
		us, _ = probe(func() {
			obj.Version++
			if applied, _, err := ps.StoreAt(obj); err != nil || !applied {
				storeErr = fmt.Errorf("applied=%v err=%v", applied, err)
			}
		})
		if storeErr != nil {
			return fmt.Errorf("probe %s: %w", p.metric, storeErr)
		}
		set(p.metric, us)
		if p.metric == "pstate.store_at.us" {
			var got *pstate.Object
			us, _ = probe(func() { got = ps.Pull("bench/probe") })
			if got == nil || got.Version != obj.Version {
				return fmt.Errorf("probe pstate.Pull: wrong object")
			}
			set("pstate.pull.us", us)
		}
	}

	// gossip: the writer's Set and the Stamped codec round trip a poll and
	// a push each pay.
	gsvc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Transport: wire.NewMemTransport(), Silent: true})
	agent := gossip.NewAgent(gsvc.Server(), "probe")
	val := make([]byte, gossipValue)
	rng.Read(val)
	var st gossip.Stamped
	us, _ = probe(func() { st = agent.Set(gossipKey, val) })
	set("gossip.agent_set.us", us)
	us, _ = probe(func() {
		s, err := gossip.DecodeStamped(gossip.EncodeStamped(st))
		if err != nil {
			codecErr = err
		}
		st.Counter = s.Counter
	})
	gsvc.Close()
	if codecErr != nil {
		return fmt.Errorf("probe stamped codec: %w", codecErr)
	}
	set("gossip.stamped_codec.us", us)
	return nil
}
