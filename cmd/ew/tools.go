package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"everyware/internal/applet"
	"everyware/internal/core"
	"everyware/internal/globus"
	"everyware/internal/ramsey"
	"everyware/internal/wire"
)

// appletCmd runs one simulated browser applet session against a gateway:
// fetch parcels, compute them, return the results, leave.
func appletCmd(fs *flag.FlagSet) action {
	gateway := fs.String("gateway", defaultAddr("gateway"), "gateway address")
	id := fs.String("id", "", "visitor ID (defaults to visitor-<pid>)")
	parcels := fs.Int("parcels", 10, "parcels to compute before leaving")
	return func(_ context.Context, w io.Writer, _ []string) int {
		if *id == "" {
			*id = fmt.Sprintf("visitor-%d", os.Getpid())
		}
		a := applet.NewApplet(*id, *gateway)
		defer a.Close()
		start := time.Now()
		found, err := a.RunParcels(*parcels)
		if err != nil {
			return fail(fs, err)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "applet %s: %d parcels, %d counter-examples, %d integer ops (%.3g ops/s)\n",
			*id, *parcels, found, a.Ops(), float64(a.Ops())/elapsed.Seconds())
		return 0
	}
}

// ramseyCmd runs the Ramsey counter-example search standalone (no Grid
// services): for exploring the heuristics and verifying known bounds on
// one machine.
func ramseyCmd(fs *flag.FlagSet) action {
	n, k := problemFlags(fs)
	heur := fs.String("heuristic", "min_conflicts", "min_conflicts | tabu | anneal")
	steps := fs.Int64("steps", 100000, "max heuristic steps")
	seed := fs.Int64("seed", 1, "random seed")
	restarts := fs.Int("restarts", 5, "random restarts before giving up")
	paley := fs.Int("paley", 0, "verify the Paley coloring on this many vertices instead of searching")
	sample := fs.Int("sample-edges", 0, "bound per-step edge evaluations (0 = all)")
	return func(_ context.Context, w io.Writer, _ []string) int {
		if *paley > 0 {
			col, err := ramsey.Paley(*paley)
			if err != nil {
				return fail(fs, err)
			}
			cnt := ramsey.CountMonoCliques(col, *k, nil)
			fmt.Fprintf(w, "Paley(%d): %d monochromatic K%d subgraphs\n", *paley, cnt, *k)
			if cnt == 0 {
				fmt.Fprintf(w, "counter-example: R(%d) > %d\n", *k, *paley)
			}
			return 0
		}

		var ops ramsey.OpCounter
		start := time.Now()
		for r := 0; r < *restarts; r++ {
			s, err := ramsey.NewSearcher(ramsey.SearchConfig{
				N: *n, K: *k,
				Heuristic:   ramsey.Heuristic(*heur),
				Seed:        *seed + int64(r)*1000003,
				SampleEdges: *sample,
			}, &ops)
			if err != nil {
				return fail(fs, err)
			}
			if s.Run(*steps) {
				best, _ := s.Best()
				ce := &ramsey.CounterExample{K: *k, Coloring: best, Finder: "ew ramsey"}
				if err := ce.Verify(); err != nil {
					return fail(fs, fmt.Errorf("verification failed: %w", err))
				}
				elapsed := time.Since(start)
				fmt.Fprintf(w, "counter-example found (restart %d, %d steps, %v)\n", r, s.Iterations(), elapsed)
				fmt.Fprintf(w, "R(%d) > %d\n", *k, *n)
				fmt.Fprintf(w, "%d integer ops, %.3g ops/s\n", ops.Total(), float64(ops.Total())/elapsed.Seconds())
				return 0
			}
			_, cnt := s.Best()
			fmt.Fprintf(w, "restart %d: best coloring had %d monochromatic K%d (not a counter-example)\n", r, cnt, *k)
		}
		fmt.Fprintf(w, "no counter-example on %d vertices for R(%d) within budget (%d ops)\n", *n, *k, ops.Total())
		return 0
	}
}

// switchCmd demonstrates the Globus "light switch" of Figure 5: a single
// point of control that activates and deactivates the Globus-enabled
// application components. It assembles the whole workflow on one machine
// — an MDS directory, a GASS binary repository, gatekeepers for three
// platforms, and an EveryWare service constellation. Flipping the switch
// on queries the MDS, authenticates against each gatekeeper, stages the
// platform binary via GASS ($(ARCH) substitution), and launches real
// in-process compute clients via GRAM; they search for Ramsey
// counter-examples until the switch is flipped off.
func switchCmd(fs *flag.FlagSet) action {
	perSite := fs.Int("per-site", 2, "max clients per gatekeeper")
	runFor := fs.Duration("run", 10*time.Second, "how long to leave the switch on")
	return func(_ context.Context, w io.Writer, _ []string) int {
		dir, err := os.MkdirTemp("", "ew-switch-*")
		if err != nil {
			return fail(fs, err)
		}
		defer os.RemoveAll(dir)

		// EveryWare services the launched clients will use.
		dep, err := core.StartDeployment(core.DeploymentConfig{
			N: 17, K: 4, StepsPerCycle: 1500, PStateDir: dir,
		})
		if err != nil {
			return fail(fs, err)
		}
		defer dep.Close()

		// Globus substrate: directory, repository, gatekeepers.
		mds := globus.NewMDS()
		if _, err := mds.Start("127.0.0.1:0"); err != nil {
			return fail(fs, err)
		}
		defer mds.Close()
		gass := globus.NewGASS(0)
		if _, err := gass.Start("127.0.0.1:0"); err != nil {
			return fail(fs, err)
		}
		defer gass.Close()
		for _, arch := range []string{"x86-nt", "sparc-solaris", "alpha-unix"} {
			// The repository holds "pre-compiled binaries" per platform;
			// the in-process launcher only needs them to exist.
			if err := gass.Put("clients/"+arch+"/ew-client", []byte("ew-client image for "+arch)); err != nil {
				return fail(fs, err)
			}
		}

		// A launcher that starts a real EveryWare component per GRAM job.
		var mu sync.Mutex
		var components []*core.Component
		mkLauncher := func(site, infra string) globus.Launcher {
			return func(job *globus.Job) (globus.Process, error) {
				comp := core.NewComponent(dep.NewComponentConfig(
					fmt.Sprintf("%s-job%d", site, job.ID), infra))
				if _, err := comp.Start(); err != nil {
					return nil, err
				}
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := comp.RunCycles(1); err != nil {
							return
						}
					}
				}()
				mu.Lock()
				components = append(components, comp)
				mu.Unlock()
				var once sync.Once
				return procFunc(func() {
					once.Do(func() {
						close(stop)
						<-done
						comp.Close()
					})
				}), nil
			}
		}

		sites := []struct{ name, arch, infra string }{
			{"ncsa-nt-cluster", "x86-nt", "nt"},
			{"sdsc-sparc", "sparc-solaris", "unix"},
			{"utk-alpha", "alpha-unix", "netsolve"},
		}
		for _, s := range sites {
			gk := globus.NewGatekeeper(globus.GatekeeperConfig{
				Name: s.name, Arch: s.arch, Nodes: *perSite,
				Credential: "sc98-demo", Launch: mkLauncher(s.name, s.infra),
			})
			if _, err := gk.Start("127.0.0.1:0"); err != nil {
				return fail(fs, err)
			}
			defer gk.Close()
			mds.Register(gk.Record())
		}

		wc := wire.NewClient(2 * time.Second)
		defer wc.Close()
		sw := globus.NewLightSwitch(wc, mds.Addr(), gass.Addr(), "rich", "sc98-demo", "clients/$(ARCH)/ew-client")
		sw.MaxPerSite = *perSite

		fmt.Fprintln(w, "flipping the switch ON...")
		launched, err := sw.On()
		if err != nil {
			return fail(fs, err)
		}
		for _, l := range launched {
			fmt.Fprintf(w, "  launched job %d at %s (%s) via %s\n", l.JobID, l.Site, l.Arch, l.Gatekeeper)
		}
		fmt.Fprintf(w, "%d clients drawing power; running for %v...\n", len(launched), *runFor)
		time.Sleep(*runFor)

		fmt.Fprintln(w, "flipping the switch OFF...")
		fmt.Fprintf(w, "cancelled %d jobs\n", sw.Off())

		totalOps := int64(0)
		mu.Lock()
		for _, comp := range components {
			if comp.Runner() != nil {
				totalOps += comp.Runner().Ops().Total()
			}
		}
		mu.Unlock()
		fmt.Fprintf(w, "useful work delivered while on: %d integer ops\n", totalOps)
		found := 0
		for _, s := range dep.Schedulers() {
			found += len(s.Found())
		}
		fmt.Fprintf(w, "counter-examples verified by the schedulers: %d\n", found)
		return 0
	}
}

type procFunc func()

func (f procFunc) Stop() { f() }
