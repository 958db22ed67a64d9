package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"everyware/internal/applet"
	"everyware/internal/core"
	"everyware/internal/ctrl"
	"everyware/internal/gossip"
	"everyware/internal/legion"
	"everyware/internal/logsvc"
	"everyware/internal/nws"
	"everyware/internal/obs"
	"everyware/internal/pstate"
	"everyware/internal/scale"
	"everyware/internal/sched"
)

// logf prints a daemon's diagnostics to standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// gossipRole is one member of the Gossip pool. Station a few at
// well-known addresses; later Gossips join the pool by pointing -join at
// any of them, and the pool partitions synchronization responsibility
// among itself via the NWS clique protocol.
func gossipRole(fs *flag.FlagSet, env *daemonEnv) daemon {
	advertise := fs.String("advertise", "", "advertised address (defaults to bind address)")
	join := addrs(fs, "join", "", "comma-separated well-known Gossip addresses to join")
	sync := fs.Duration("sync", time.Second, "state synchronization interval")
	verbose := fs.Bool("v", false, "log diagnostics")
	var srv *gossip.Server
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			cfg := gossip.ServerConfig{
				ListenAddr:    listen,
				AdvertiseAddr: *advertise,
				WellKnown:     *join,
				SyncInterval:  *sync,
				Metrics:       env.reg,
				Tracer:        env.tracer,
			}
			if *verbose {
				cfg.Logf = log.Printf
			}
			srv = gossip.NewServer(cfg)
			return core.StartDaemon(srv, nil)
		},
		about: func() string { return fmt.Sprintf("(pool: %v)", *join) },
		status: func() string {
			v := srv.PoolView()
			return fmt.Sprintf("pool seq=%d leader=%s members=%d registrations=%d",
				v.Seq, v.Leader, len(v.Members), len(srv.Registrations()))
		},
	}
}

// schedRole is one scheduling server. Clients report progress to it and
// receive control directives; it migrates work from forecast-slow clients
// to forecast-fast ones and verifies every counter-example reported.
func schedRole(fs *flag.FlagSet, env *daemonEnv) daemon {
	n, k := problemFlags(fs)
	steps := fs.Int64("steps", 2000, "heuristic steps per client report")
	logAddr := fs.String("log", "", "logging server address (optional)")
	migrate := fs.Float64("migrate-below", 0.25, "migrate work from clients forecast below this fraction of the pool median (0 disables)")
	admitRate := fs.Float64("admit-rate", 0, "admission control: sustained reports/sec before shedding low-priority traffic (0 disables)")
	admitBurst := fs.Float64("admit-burst", 0, "admission token bucket depth (default -admit-rate)")
	var srv *sched.Server
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			srv = sched.NewServer(sched.ServerConfig{
				ListenAddr:           listen,
				N:                    *n,
				K:                    *k,
				DefaultSteps:         *steps,
				LogAddr:              *logAddr,
				MigrateBelowFraction: *migrate,
				AdmitRate:            *admitRate,
				AdmitBurst:           *admitBurst,
				Metrics:              env.reg,
				Tracer:               env.tracer,
			})
			return core.StartDaemon(srv, nil)
		},
		about: func() string { return fmt.Sprintf("(R(%d) counter-examples on %d vertices)", *k, *n) },
		status: func() string {
			reports, migrations, clients := srv.Stats()
			found := srv.Found()
			line := fmt.Sprintf("clients=%d reports=%d migrations=%d found=%d", clients, reports, migrations, len(found))
			for _, ce := range found {
				line += fmt.Sprintf("\n  counter-example R(%d) > %d by %s", ce.K, ce.Coloring.N(), ce.Finder)
			}
			return line
		},
	}
}

// pstateRole is one persistent state manager: the trusted storage that
// survives the loss of every other application process, enforces a disk
// quota, and sanity-checks objects (e.g. Ramsey counter-examples) before
// storing them. Given -peers, it is one replica of a fleet: it
// anti-entropies per-key digests against its siblings on a jittered
// -sync timer, so checkpoints written while it was down repair in, and
// deletions propagate as tombstones instead of resurrecting.
func pstateRole(fs *flag.FlagSet, env *daemonEnv) daemon {
	dir := fs.String("dir", "./everyware-state", "storage directory")
	quota := fs.Int64("quota", 64<<20, "payload byte quota (0 = unlimited)")
	peers := addrs(fs, "peers", "", "comma-separated sibling replica addresses for anti-entropy repair")
	syncEvery := fs.Duration("sync", 5*time.Second, "mean anti-entropy period (jittered)")
	var srv *pstate.Server
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			var err error
			srv, err = pstate.NewServer(pstate.ServerConfig{
				ListenAddr:   listen,
				Dir:          *dir,
				MaxBytes:     *quota,
				Peers:        *peers,
				SyncInterval: *syncEvery,
				Metrics:      env.reg,
				Tracer:       env.tracer,
				Logf:         log.Printf,
			})
			return core.StartDaemon(srv, err)
		},
		about: func() string {
			s := fmt.Sprintf("(storing under %s, %d objects recovered", *dir, len(srv.Names()))
			if len(*peers) > 0 {
				s += fmt.Sprintf("; anti-entropy with %v every ~%s", *peers, *syncEvery)
			}
			return s + ")"
		},
		status: func() string {
			used, q := srv.Usage()
			return fmt.Sprintf("%d objects, %d/%d bytes", len(srv.Names()), used, q)
		},
	}
}

// logdRole is the distributed logging server. Scheduling servers forward
// client performance reports here before discarding them, and traced
// daemons export their spans here.
func logdRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	file := fs.String("file", "", "append entries to this file (optional)")
	maxBytes := fs.Int64("max-file-bytes", 0, "stop file appends beyond this size (0 = unlimited)")
	ring := fs.Int("ring", 65536, "in-memory ring buffer entries")
	var srv *logsvc.Server
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			var err error
			srv, err = logsvc.NewServer(logsvc.ServerConfig{
				ListenAddr:   listen,
				File:         *file,
				MaxFileBytes: *maxBytes,
				MaxEntries:   *ring,
			})
			return core.StartDaemon(srv, err)
		},
		status: func() string {
			appended, dropped := srv.Stats()
			return fmt.Sprintf("%d entries (%d dropped by file quota)", appended, dropped)
		},
	}
}

// clientRole is one computational client: it contacts a scheduler for
// start-up parameters, runs the assigned Ramsey search heuristic, reports
// progress, and checkpoints verified counter-examples through the Gossip
// and persistent state services. It listens so a Gossip can call it back.
func clientRole(fs *flag.FlagSet, env *daemonEnv) daemon {
	id := fs.String("id", "", "client ID (defaults to the bound address)")
	infra := fs.String("infra", "unix", "hosting infrastructure label")
	scheds := addrs(fs, "sched", defaultAddr("sched"), "comma-separated scheduler addresses")
	gossips := addrs(fs, "gossip", "", "comma-separated Gossip addresses (optional)")
	pstates := addrs(fs, "pstate", "", "comma-separated persistent state manager addresses (optional)")
	logs := addrs(fs, "log", "", "comma-separated logging server addresses (optional)")
	cycles := fs.Int("cycles", 0, "stop after this many cycles (0 = run until signalled)")
	sample := fs.Int("sample-edges", 0, "bound per-step edge evaluations (0 = all)")
	shardRing := fs.Bool("shard-ring", false, "treat -sched as a consistent-hash shard fleet: route reports by client ID instead of primary-plus-failover (gossip-published rings supersede)")
	var comp *core.Component
	var done atomic.Int64
	lastOps, lastAt := int64(0), time.Now()
	best := func() string {
		if ce := comp.Best(); ce != nil {
			return fmt.Sprintf("; best known: R(%d) > %d", ce.K, ce.Coloring.N())
		}
		return ""
	}
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			comp = core.NewComponent(core.ComponentConfig{
				ID:          *id,
				Infra:       *infra,
				ListenAddr:  listen,
				Schedulers:  *scheds,
				Gossips:     *gossips,
				PStates:     *pstates,
				LogServers:  *logs,
				SampleEdges: *sample,
				Metrics:     env.reg,
				Tracer:      env.tracer,
			})
			d, err := core.StartDaemon(comp, nil)
			if err == nil && *shardRing {
				comp.Runner().SetRing(scale.NewRing(*scheds, scale.DefaultVNodes))
			}
			return d, err
		},
		about: func() string {
			if *shardRing {
				return fmt.Sprintf("(infra %s, sharding reports across %d schedulers)", *infra, len(*scheds))
			}
			return fmt.Sprintf("(infra %s)", *infra)
		},
		status: func() string {
			total := comp.Runner().Ops().Total()
			rate := float64(total-lastOps) / time.Since(lastAt).Seconds()
			lastOps, lastAt = total, time.Now()
			return fmt.Sprintf("%d cycles, %.3g ops/s sustained%s", done.Load(), rate, best())
		},
		work: func(ctx context.Context, w io.Writer) {
			for *cycles == 0 || done.Load() < int64(*cycles) {
				if ctx.Err() != nil {
					return
				}
				n, err := comp.RunCycles(1)
				if err != nil {
					logf("ew client: cycle error: %v (retrying in 5s)", err)
					select {
					case <-ctx.Done():
						return
					case <-time.After(5 * time.Second):
					}
					continue
				}
				done.Add(int64(n))
				if comp.Runner().Stopped() {
					fmt.Fprintln(w, "ew client: scheduler directed stop")
					return
				}
			}
			fmt.Fprintf(w, "ew client: finished %d cycles%s\n", done.Load(), best())
		},
	}
}

// ctrlRole is the self-healing controller. Standby promotion needs no
// host cooperation; restart-in-place requires a process manager next to
// each daemon, so the standalone controller logs deaths and heals the
// pstate roster. With -peers it joins the replicated group: it ingests
// every broadcast heartbeat either way, but only acts when it is the
// elected, epoch-fenced leader.
func ctrlRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	id := fs.String("id", "", "this controller's name in the replicated group")
	peers := addrs(fs, "peers", "", "comma-separated addresses of EVERY controller in the replicated group, including this one; empty runs solo")
	pstates := addrs(fs, "pstate", "", "comma-separated initial pstate quorum roster")
	gossips := addrs(fs, "gossip", "", "comma-separated Gossip hosts to publish membership/roster through")
	interval := fs.Duration("interval", 2*time.Second, "reconcile period")
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			return core.StartDaemon(ctrl.NewServer(ctrl.ServerConfig{
				ListenAddr: listen,
				ID:         *id,
				Peers:      *peers,
				Interval:   *interval,
				Gossips:    *gossips,
				PStates:    *pstates,
				Logf:       logf,
			}))
		},
		about: func() string {
			if len(*peers) > 0 {
				return fmt.Sprintf("(controller %s in group %s, roster %s)",
					*id, strings.Join(*peers, " "), strings.Join(*pstates, " "))
			}
			return fmt.Sprintf("(roster %s)", strings.Join(*pstates, " "))
		},
	}
}

// beatRole is one member's heartbeat sidecar: it probes the member daemon
// and attests it to the controllers.
func beatRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	id := fs.String("id", "", "fleet-unique member name (e.g. sched1)")
	memberRole := fs.String("role", "", "member role (gossip, sched, pstate, logsvc)")
	memberAddr := fs.String("addr", "", "the member daemon's address to probe and attest")
	ctrls := addrs(fs, "ctrl", "", "comma-separated controller addresses")
	interval := fs.Duration("interval", 2*time.Second, "heartbeat period")
	return daemon{
		start: func(string) (core.Daemon, error) {
			if *id == "" || *memberRole == "" || *memberAddr == "" || len(*ctrls) == 0 {
				return nil, errors.New("needs -id, -role, -addr, and -ctrl")
			}
			b := ctrl.NewBeater(ctrl.BeaterConfig{
				Member:   ctrl.Member{ID: *id, Role: *memberRole, Addr: *memberAddr},
				Ctrls:    *ctrls,
				Interval: *interval,
				Logf:     logf,
			})
			b.Start()
			return adapted{addr: ctrls.String(), close: b.Close}, nil
		},
		about: func() string { return fmt.Sprintf("for %s (%s at %s)", *id, *memberRole, *memberAddr) },
	}
}

// nwsRole is the Network Weather Service memory: the measurement store
// and forecaster EveryWare components query for short-term resource
// performance predictions.
func nwsRole(*flag.FlagSet, *daemonEnv) daemon {
	m := nws.NewMemory()
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			_, err := m.Start(listen)
			return m, err
		},
		status: func() string {
			keys := m.Keys()
			line := fmt.Sprintf("%d series tracked", len(keys))
			for _, k := range keys {
				if f, ok := m.Forecast(k); ok {
					line += fmt.Sprintf("\n  %s/%s: %.4g (%s, %d samples)", k.Resource, k.Event, f.Value, f.Method, f.Samples)
				}
			}
			return line
		},
	}
}

// sensorRole is an NWS host sensor: it periodically measures local CPU
// availability and network round-trip times to peers, reporting to a
// memory.
func sensorRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	name := fs.String("name", "", "sensor host name (defaults to this host's)")
	memory := fs.String("memory", defaultAddr("nws"), "NWS memory address")
	peers := addrs(fs, "peers", "", "comma-separated peer addresses to measure RTT to")
	period := fs.Duration("period", 10*time.Second, "measurement period")
	return daemon{
		start: func(string) (core.Daemon, error) {
			if *name == "" {
				*name, _ = os.Hostname()
			}
			s := nws.NewSensor(nws.SensorConfig{Name: *name, MemoryAddr: *memory, Peers: *peers, Period: *period})
			s.Start()
			return adapted{addr: *memory, close: s.Close}, nil
		},
		about: func() string { return fmt.Sprintf("as %q every %v (peers: %v)", *name, *period, *peers) },
	}
}

// obsRole is a standalone Grid Observatory over a static scrape list with
// the stock rule set (clique-membership anomaly, scheduler queue anomaly,
// lost-work burn rate); deployments embedding internal/core get the same
// daemon with a live roster by setting DeploymentConfig.Observatory.
func obsRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	scrape := addrs(fs, "scrape", "", "comma-separated daemon telemetry addresses to scrape (required)")
	interval := fs.Duration("interval", 5*time.Second, "scrape period")
	points := fs.Int("points", 128, "ring capacity per series")
	pstates := addrs(fs, "pstate", "", "comma-separated pstate replica addresses for alert-table persistence")
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			if len(*scrape) == 0 {
				return nil, errors.New("needs -scrape daemon-addr[,daemon-addr...]")
			}
			srv := obs.New(obs.Config{
				ListenAddr: listen,
				Targets:    *scrape,
				Interval:   *interval,
				Points:     *points,
				Rules:      core.DefaultObsRules(),
				PStates:    *pstates,
			})
			addr, err := srv.Start()
			return adapted{addr: addr, close: func() { srv.Close() }}, err
		},
		about: func() string { return fmt.Sprintf("(scraping %d target(s) every %s)", len(*scrape), *interval) },
	}
}

// gatewayRole is the Java-applet gateway of section 5.6: browser visitors
// contribute cycles without installing anything; applets fetch small
// work parcels and return results, and the gateway carries the full
// EveryWare protocol on their behalf.
func gatewayRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	scheds := addrs(fs, "sched", defaultAddr("sched"), "comma-separated scheduler addresses")
	var g *applet.Gateway
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			var err error
			g, err = applet.NewGateway(applet.GatewayConfig{ListenAddr: listen, Schedulers: *scheds})
			return core.StartDaemon(g, err)
		},
		about: func() string { return fmt.Sprintf("(schedulers %s)", scheds) },
		status: func() string {
			p, r, f := g.Stats()
			return fmt.Sprintf("%d parcels out, %d returned, %d counter-examples", p, r, f)
		},
	}
}

// legionRole is the Legion substrate translator: a single monitoring
// point that bridges lingua franca messages to method invocations on the
// combined scheduler + persistent-state service object (the SC98
// configuration of section 5.3).
func legionRole(fs *flag.FlagSet, _ *daemonEnv) daemon {
	n, k := problemFlags(fs)
	dir := fs.String("dir", "./legion-state", "persistent state directory")
	tr := legion.NewTranslator()
	return daemon{
		start: func(listen string) (core.Daemon, error) {
			sv := sched.NewServer(sched.ServerConfig{N: *n, K: *k})
			ps, err := pstate.NewServer(pstate.ServerConfig{ListenAddr: "127.0.0.1:0", Dir: *dir})
			if err == nil {
				err = tr.Register(legion.NewServicesObject(sv, ps))
			}
			var addr string
			if err == nil {
				addr, err = tr.Start(listen)
			}
			closeAll := func() {
				tr.Close()
				if ps != nil {
					ps.Close()
				}
				sv.Close()
			}
			if err != nil {
				closeAll()
				return nil, err
			}
			return adapted{addr: addr, close: closeAll}, nil
		},
		about: func() string {
			return fmt.Sprintf("(object %q, methods: report, store, fetch)", legion.ServicesObjectName)
		},
		status: func() string {
			var lines []string
			for _, st := range tr.Stats() {
				lines = append(lines, fmt.Sprintf("%s.%s calls=%d errors=%d", st.Object, st.Method, st.Calls, st.Errors))
			}
			return strings.Join(lines, "\n  ")
		},
	}
}
