package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"everyware/internal/core"
	"everyware/internal/dtrace"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ports is every listening daemon's default port, all on 127.0.0.1: a
// daemon serves other hosts only when -listen says so. No two daemons
// share a port, so any set of them starts on one host with no flags. A
// client's listener has no well-known port.
var ports = map[string]int{
	"gossip":  9001,
	"sched":   9101,
	"pstate":  9201,
	"logd":    9301,
	"nws":     9401,
	"gateway": 9501,
	"legion":  9601,
	"ctrl":    9701,
	"obs":     9801,
	"client":  0,
}

// defaultAddr is role's address on this host at its default port.
func defaultAddr(role string) string {
	return net.JoinHostPort("127.0.0.1", strconv.Itoa(ports[role]))
}

// splitAddrs parses a comma-separated address list: spaces around an
// entry and empty entries are dropped. Every address-list flag and
// argument goes through it.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// addrList is a comma-separated address-list flag.
type addrList []string

func (l *addrList) String() string     { return strings.Join(*l, ",") }
func (l *addrList) Set(s string) error { *l = splitAddrs(s); return nil }

// addrs declares an address-list flag with the given default list.
func addrs(fs *flag.FlagSet, name, def, usage string) *addrList {
	l := addrList(splitAddrs(def))
	fs.Var(&l, name, usage)
	return &l
}

// problemFlags declares the Ramsey problem every searcher works on: a
// counter-example for R(k) on n vertices.
func problemFlags(fs *flag.FlagSet) (n, k *int) {
	return fs.Int("n", 17, "vertices to color"), fs.Int("k", 4, "clique size to avoid (searching R(k) counter-examples)")
}

// Which of the shared telemetry flags (-http, -trace, -trace-sample) a
// daemon takes.
const (
	untraced = false
	traced   = true
)

// A daemon is what a role contributes to the run loop; the loop does the
// rest.
type daemon struct {
	// start builds and starts the daemon on the -listen address ("" for
	// a sidecar, which listens nowhere).
	start core.StartFunc
	// about, if set, completes the line announcing the start.
	about func() string
	// status, if set, is printed every statusEvery.
	status func() string
	// work, if set, is the daemon's foreground work: the run ends when it
	// returns, and it must return once ctx is done.
	work func(ctx context.Context, w io.Writer)
}

// A role declares a daemon subcommand's own flags on fs and returns the
// daemon, whose closures read them once parsed. env is filled in before
// start is called.
type role func(fs *flag.FlagSet, env *daemonEnv) daemon

// daemonEnv is what the run loop hands every daemon.
type daemonEnv struct {
	reg    *telemetry.Registry
	tracer wire.Tracer // nil unless -trace is set
}

const statusEvery = 10 * time.Second

// serve is the subcommand setup of every daemon: the shared flags, the
// role's own, and the one run loop.
func serve(r role, hasTrace bool) func(fs *flag.FlagSet) action {
	return func(fs *flag.FlagSet) action {
		name := strings.TrimPrefix(fs.Name(), "ew ")
		var listen, httpAddr, traceAddr string
		var traceSample int
		_, listens := ports[name]
		if listens {
			fs.StringVar(&listen, "listen", defaultAddr(name), "bind address")
		}
		if hasTrace {
			fs.StringVar(&httpAddr, "http", "", "serve /metrics, /healthz, and pprof on this address (optional)")
			fs.StringVar(&traceAddr, "trace", "", "trace collector address (a logd daemon; empty disables causal tracing)")
			fs.IntVar(&traceSample, "trace-sample", 1, "record one trace in every N roots (head-based sampling)")
		}
		env := &daemonEnv{reg: telemetry.NewRegistry()}
		d := r(fs, env)
		return func(ctx context.Context, w io.Writer, _ []string) int {
			tracer, stopTrace := dtrace.ForDaemon(name, traceAddr, traceSample, env.reg)
			defer stopTrace()
			if tracer != nil {
				env.tracer = tracer
			}
			dm, err := d.start(listen)
			if err != nil {
				return fail(fs, err)
			}
			defer dm.Close()
			verb := "serving on"
			if !listens {
				verb = "reporting to"
			}
			line := fmt.Sprintf("%s: %s %s", fs.Name(), verb, dm.Addr())
			if d.about != nil {
				line += " " + d.about()
			}
			fmt.Fprintln(w, line)
			tracer.SetService(name + "@" + dm.Addr())
			if traceAddr != "" {
				fmt.Fprintf(w, "%s: tracing to %s (1 in %d)\n", fs.Name(), traceAddr, traceSample)
			}
			if httpAddr != "" {
				hs, err := telemetry.ServeHTTP(env.reg, httpAddr, nil)
				if err != nil {
					return fail(fs, fmt.Errorf("http listener: %w", err))
				}
				defer hs.Close()
				fmt.Fprintf(w, "%s: metrics on http://%s/metrics\n", fs.Name(), hs.Addr())
			}

			ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
			defer stop()
			worked := make(chan struct{})
			if d.work != nil {
				go func() {
					defer close(worked)
					d.work(ctx, w)
				}()
			}
			tick := time.NewTicker(statusEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					if d.work != nil {
						<-worked
					}
					fmt.Fprintf(w, "%s: shutting down\n", fs.Name())
					return 0
				case <-worked:
					return 0
				case <-tick.C:
					if d.status == nil {
						break
					}
					if s := d.status(); s != "" {
						fmt.Fprintf(w, "%s: %s\n", fs.Name(), s)
					}
				}
			}
		}
	}
}

// adapted is a started service whose own methods do not fit
// core.Daemon. A sidecar's addr is where it reports.
type adapted struct {
	addr  string
	close func()
}

func (a adapted) Addr() string { return a.addr }
func (a adapted) Close()       { a.close() }
