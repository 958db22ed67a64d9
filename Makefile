GO ?= go

.PHONY: all build vet test test-race deadcode msgtable bench bench-wire bench-grid trace figures examples chaos crash heal scale obs clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Dead-code gates, three of them: two for functions, one for settings.
#
# Linkage: a program is every main package under cmd/, examples/ and
# bench/. ew-unlinked builds them all with inlining off and lists, into
# deadcode.unlinked, the functions under internal/ whose symbol none of
# them contains: no user can run such a function, even when tests cover
# it. The gate fails above UNLINKED_MAX. Every entry at the ceiling is in
# one of these classes; a new entry needs a program caller, a class, or
# deleting:
#   - test-harness API: faults.Injector's Slow/Unslow/SlowFor/SlowHandler/
#     ScheduleFor/WrapEndpoint and the clique.Endpoint send filter
#     WrapEndpoint installs; dtrace.Capture and Tracer.Root;
#     pstate.CrashSites; wire.NewRawRequest and Messages (the msgtable
#     listing); forecast.Registry.StartEvent;
#   - encode halves whose decoder a program links: applet Parcel and
#     ParcelResult, clique Message, ctrl Heartbeat and Status, dtrace
#     Spans, gossip Registrations, logsvc Entry;
#   - client halves of live messages, each the only decoder of its reply:
#     legion.NewClient/Client.Invoke, nws.Client.Forecast, globus
#     MDSClient.Register and GASSClient.Put;
#   - ROADMAP's Decided list (pstate.Server.Delete, nws.Memory.Series,
#     globus Gatekeeper.Job) and reference oracles (ramsey
#     IsCounterExample, CountMonoCliquesThroughEdge, Coloring.Equal);
#   - owed a caller by an open ROADMAP item: pstate.ReplicaSet's
#     Addrs/Delete/List/SpoolDepth and goDigest (items 3, 10, 12);
#     ctrl.FleetSpec.Service and the §5.4 resume path
#     core.Component.ResumeFromCheckpoint, sched.Runner.Adopt,
#     sched.DecodeWorkUnit (item 6);
#   - String() and net.Conn methods;
#   - the rest (35): accessors and one-line shorthands that tests observe
#     or drive through.
#
# Coverage: one coverage pass over every test in the module,
# instrumenting internal/ and cmd/, lists the functions under internal/
# that nothing executed and fails above DEADCODE_MAX. What remains at the
# ceiling is called only from a cmd/ main, a benchmark or a test-failure
# message, satisfies net.Conn / net.Addr / wire.ActiveSpan / a default
# hook, or is the control plane's untested actuation path (ROADMAP item
# 6); a new entry needs a caller, a test, or deleting.
#
# Settings: the same ew-unlinked run type-checks the module and lists,
# into deadcode.unset, every field of a *Config struct under internal/
# that no non-test file writes (a composite-literal key or an
# assignment; a default, assigned inside an if that reads the field,
# does not count). It also prints how many fields the *Config structs
# declare in all.
# The gate fails above UNSET_MAX. A field nothing sets becomes a
# constant; a field only tests set goes when those tests pass at its
# default. Every entry at the ceiling is in one of these classes; a new
# entry needs a program that sets it, a class, or deleting:
#   - Decided (ROADMAP): the autoscale trio, core.DeploymentConfig's
#     SchedulerMin/SchedulerMax/SchedulerTargetLoad;
#   - clock/registry test seam, and the other substitutes a test hands
#     in: ctrl.DetectorConfig.Now, dtrace.Config.Now/Rand,
#     ctrl.ServerConfig.Metrics/Load, applet.GatewayConfig.Transport,
#     globus.GatekeeperConfig.Transport, nws.SensorConfig.CPU/DisableCPU,
#     logsvc.ServerConfig.Tracer;
#   - chaos-harness sizing: faults.ScenarioConfig's Gossips/Schedulers/
#     Components/Cycles/PStates/Ctrls/StandbyPStates/Kills,
#     core.DeploymentConfig's Controllers/StandbyPStateDirs/Observatory,
#     and the buffers eviction tests fill: logsvc.ServerConfig.MaxSpans,
#     dtrace.TailConfig.MaxSpans, dtrace.ExporterConfig.Buffer;
#   - test speed-up: clique.Config.ProbeInterval,
#     core.ComponentConfig.CallTimeout, core.DeploymentConfig's
#     SyncInterval/HeartbeatInterval/ObsInterval, ctrl.DetectorConfig's
#     MinStdDev/Bootstrap, ctrl.ServerConfig's BackoffBase/BackoffMax/
#     CrashLoopReset/DownStreak/ScaleCooldown, dtrace.ExporterConfig.Timeout,
#     dtrace.TailConfig.HoldFor, grid.CondorPlacementConfig.Duration,
#     sweep.Config.Duration;
#   - a policy a unit test isolates: sched.ServerConfig's
#     StepsByHeuristic/StopWhenFound, grid.ScenarioConfig's
#     Profiles/DisableJudging/DisableTestWindow,
#     grid.NetLoadConfig.SCINetEpisodes, condor.PoolConfig.ClaimDelay,
#     pstate.ReplicaSetConfig.WriteQuorum (ROADMAP owes a decision).
UNLINKED_MAX = 80
DEADCODE_MAX = 15
UNSET_MAX = 51
deadcode:
	$(GO) run ./cmd/ew-unlinked ./cmd/... ./examples/... ./bench > deadcode.unlinked
	awk -v max=$(UNLINKED_MAX) '{ print; n++ } \
		END { printf "%d unlinked functions under internal/ (ceiling %d)\n", n, max; exit n > max }' deadcode.unlinked
	awk -v max=$(UNSET_MAX) '{ print; n++ } \
		END { printf "%d *Config fields under internal/ set by no non-test file (ceiling %d)\n", n, max; exit n > max }' deadcode.unset
	$(GO) test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile=deadcode.cover ./...
	$(GO) tool cover -func=deadcode.cover | awk -v max=$(DEADCODE_MAX) \
		'$$1 ~ /\/internal\// && $$NF == "0.0%" { print; n++ } \
		END { printf "%d zero-coverage functions under internal/ (ceiling %d)\n", n, max; exit n > max }'

# Print the message table — every wire message and every retired number,
# from wire.Messages() — in the form DESIGN.md's "The message table"
# lists it. Regenerate that listing from here; do not edit it by hand.
msgtable:
	$(GO) test -count=1 -run TestMessageTable -v ./internal/wire/

# Record the microbenchmark ledger: every BENCH_*.json except
# BENCH_wire.json (see bench-wire) is written here and nowhere else, so
# running a test suite never rewrites a tracked file. Hot paths (wire
# codec, forecasters, trace series, telemetry counters); the replication
# plane (quorum writes, quorum reads, digest sync); tracing's
# propagation overhead — compare RoundTripUnsampled against
# RoundTripUntraced (and BenchmarkRoundTripMem in BENCH_wire.json): the
# unsampled delta is the always-on cost of tracing and must stay <5%;
# member- and leader-failover MTTR; the E14 virtual-client sweep (capped
# at 100k clients; `EW_SWEEP_MAX_CLIENTS=1000000 make bench` for the full
# curve, whose overload point recirculates its backlog and takes ~1 min);
# and the observatory — ingest, rule eval, scrape rounds, and the scraped
# vs unscraped wire round trip (the scrape-overhead budget is <3%).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' \
		./internal/wire/ ./internal/forecast/ ./internal/trace/ ./internal/telemetry/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_telemetry.json
	$(GO) test -bench='Quorum|DigestSync' -benchmem -run='^$$' ./internal/pstate/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_pstate.json
	$(GO) test -bench='RoundTrip|SpanRecord|EncodeSpans' -benchmem -run='^$$' ./internal/dtrace/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_dtrace.json
	$(GO) test -bench='Detector|ReconcileTick|FailoverMTTR' -benchmem -run='^$$' ./internal/ctrl/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_ctrl.json
	EW_SWEEP_MAX_CLIENTS=$${EW_SWEEP_MAX_CLIENTS:-100000} \
		$(GO) test -bench=Sweep -benchmem -benchtime=1x -run='^$$' -timeout 30m ./internal/scale/sweep/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_scale.json
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/obs/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_obs.json

# Transport comparison: the same lingua franca round trip,
# concurrent-caller demux throughput, and pipelined-window cost over TCP
# loopback vs the in-memory transport, recorded as JSON for
# commit-over-commit comparison. The allocation gates run first: a
# pooling regression on the zero-alloc hot path, or an allocation on the
# forecast read/record every message makes, fails the target before any
# numbers are recorded.
bench-wire:
	$(GO) test -run 'TestMemRoundTripAllocGate|TestForecastHotPathAllocs' -count=1 ./internal/wire/ ./internal/forecast/
	$(GO) test -bench='RoundTrip|ConcurrentCalls|Pipelined' -benchmem -run='^$$' ./internal/wire/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_wire.json

# The grid benchmark: four closed-loop workloads against real daemons,
# end-to-end metrics gated by BENCHMARK.json (see bench/README.md).
bench-grid:
	bash bench/run.sh

# Causal tracing suite: the trace plane (span records, wire envelope
# compat, collector) under the race detector.
trace:
	$(GO) test -race -count=1 ./internal/outbox/ ./internal/dtrace/ ./internal/wire/ ./internal/logsvc/

# Replay the SC98 window and emit every figure plus CSV exports.
figures:
	$(GO) run ./cmd/ew sc98 -fig all -out figures/

# Chaos soak: a mini SC98 over real localhost daemons with seeded fault
# injection (drops, duplicates, resets, torn writes, delays, a Gossip
# partition/heal), race detector on, plus the standalone chaos binary run.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|UnderFaults' -v ./internal/faults/
	$(GO) run ./cmd/ew sc98 -fig chaos

# Crash-restart suite: kill the persistent state manager at every persist
# crash site and restart it from its data directory, run the tombstone and
# quorum convergence tests, and the stale-read regression — all under the
# race detector.
crash:
	$(GO) test -race -count=1 -v \
		-run 'TestPersistCrashPoints|TestTombstone|TestAntiEntropy|TestQuorum|TestSpool|TestPersistenceAcrossRestart|TestTornWriteRecovered' \
		./internal/pstate/
	$(GO) test -race -count=1 -v -run 'TestRecoverNotStaleAfterPartition' ./internal/faults/

# Self-healing suite: failure detector, reconcile-loop, and HA
# (election/fencing/autoscale/rollout) unit tests, the member table the
# restart hooks resolve through (kill/restart of every role, Close racing
# a restart, the restarted-replica regression), the deployment
# self-heal and controller-failover tests, and the chaos convergence
# runs — kill a scheduler AND a roster replica mid-workload, then kill
# the ACTING LEADER mid-heal; a follower must finish the repair with
# zero acked checkpoints lost — all under the race detector.
heal:
	$(GO) test -race -count=1 ./internal/ctrl/
	$(GO) test -race -count=1 -run 'TestMember|TestRestartedReplicaResumesAntiEntropy|TestDeploymentSelfHeals|TestDeploymentControlPlaneFailover|TestDeploymentAddAndRetireScheduler|TestDeploymentClose' ./internal/core/
	$(GO) test -race -count=1 -v -run 'TestCtrlHeal|TestCtrlLeaderFailoverHeal' -timeout 10m ./internal/faults/

# Web-scale suite: the scale plane (ring, router, admission, outbox,
# gossip-traffic model) and the sharded-scheduler integration under the
# race detector, and the shard-kill chaos test over real daemons.
scale:
	$(GO) test -race -count=1 ./internal/outbox/ ./internal/scale/... ./internal/sched/
	$(GO) test -race -count=1 -run 'TestScaleShardKill' -v ./internal/faults/

# Grid Observatory suite: the series store, rule engine, alert codec,
# scrape daemon, and snapshot-codec version-skew tests under the race
# detector; the observatory-vs-autoscaler hook; the end-to-end
# slowdown proof (anomaly alert + exemplar + tail-promoted trace) and
# the chaos partition alert, also raced.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestAutoscalerObsAlertBoost' ./internal/ctrl/
	$(GO) test -race -count=1 -run 'TestObservatorySlowdownE2E|TestChaosSoak' -v ./internal/faults/
	$(GO) test -race -count=1 -run 'TestDeploymentObservatory' ./internal/core/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forecast-timeout
	$(GO) run ./examples/ramsey-grid
	$(GO) run ./examples/condor-checkpoint
	$(GO) run ./examples/applet-farm

# Untracked outputs only: the BENCH_*.json files are committed records.
clean:
	rm -rf figures/ test_output.txt bench_output.txt deadcode.cover deadcode.unlinked deadcode.unset .bench_build/ bench/out/
