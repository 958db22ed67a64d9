// Command ew is the EveryWare toolkit: every daemon, sidecar, viewer and
// experiment is one of its subcommands, started the same way on every
// host (no infrastructure-specific environment, per section 5.1 of the
// paper).
//
// Usage:
//
//	ew <subcommand> [flags] [args]
//	ew help                 # the subcommand table
//	ew <subcommand> -h      # one subcommand's flags
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

// An action runs a subcommand once its flags are parsed; args are the
// positional arguments left over. It returns the process exit code.
type action func(ctx context.Context, w io.Writer, args []string) int

// A command is one row of the subcommand table: setup declares the
// subcommand's flags on fs and returns the action that reads them.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) action
}

// commands is the subcommand table, in the order ew help lists it.
var commands = []command{
	{"gossip", "Gossip state-exchange pool member", serve(gossipRole, traced)},
	{"sched", "scheduling server", serve(schedRole, traced)},
	{"pstate", "persistent state manager", serve(pstateRole, traced)},
	{"logd", "logging server and trace collector", serve(logdRole, untraced)},
	{"client", "compute client: runs the Ramsey search for a scheduler", serve(clientRole, traced)},
	{"ctrl", "self-healing controller", serve(ctrlRole, untraced)},
	{"beat", "heartbeat sidecar reporting a member to the controllers", serve(beatRole, untraced)},
	{"nws", "Network Weather Service memory and forecaster", serve(nwsRole, untraced)},
	{"sensor", "NWS host sensor reporting to a memory", serve(sensorRole, untraced)},
	{"obs", "Grid Observatory: scrapes daemons, evaluates alert rules", serve(obsRole, untraced)},
	{"gateway", "Java-applet gateway (section 5.6)", serve(gatewayRole, untraced)},
	{"legion", "Legion substrate translator (section 5.3)", serve(legionRole, untraced)},
	{"applet", "one simulated browser applet session against a gateway", appletCmd},
	{"ctrl-watch", "a controller's membership view", ctrlWatchCmd},
	{"obs-watch", "an observatory's series as a sparkline dashboard", obsWatchCmd},
	{"obs-alerts", "an observatory's alert table", obsAlertsCmd},
	{"obs-query", "an observatory's raw series points", obsQueryCmd},
	{"top", "per-daemon telemetry table", topCmd},
	{"trace", "causal traces from a collector, as span trees", traceCmd},
	{"ramsey", "standalone Ramsey counter-example search", ramseyCmd},
	{"sc98", "replay the SC98 window: every figure and ablation", sc98Cmd},
	{"switch", "the Globus light-switch demo (Figure 5)", switchCmd},
}

// run dispatches args[0] through the subcommand table and returns the
// exit code: 0 on success, 1 on failure, 2 on a usage error.
func run(ctx context.Context, args []string, w io.Writer) int {
	if len(args) == 0 {
		help(os.Stderr)
		return 2
	}
	if name := args[0]; name == "help" || name == "-h" || name == "-help" || name == "--help" {
		help(w)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("ew "+c.name, flag.ContinueOnError)
		act := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		return act(ctx, w, fs.Args())
	}
	fmt.Fprintf(os.Stderr, "ew: unknown subcommand %q\n", args[0])
	help(os.Stderr)
	return 2
}

func help(w io.Writer) {
	fmt.Fprintln(w, "usage: ew <subcommand> [flags] [args]   (ew <subcommand> -h lists its flags)")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
}

// fail reports err as fs's subcommand failing and returns exit code 1.
func fail(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
	return 1
}

// usage reports a missing argument with fs's flags and returns exit code 2.
func usage(fs *flag.FlagSet, args string) int {
	fmt.Fprintf(os.Stderr, "usage: %s [flags] %s\n", fs.Name(), args)
	fs.PrintDefaults()
	return 2
}
