GO ?= go

.PHONY: all build vet test test-race bench bench-wire bench-grid trace figures examples chaos crash heal scale obs clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Benchmark the hot paths (wire codec, forecasters, trace series,
# telemetry counters) and record the parsed results as JSON for
# commit-over-commit comparison. The replication plane (quorum writes,
# quorum reads, digest sync) is benchmarked separately into its own JSON.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' \
		./internal/wire/ ./internal/forecast/ ./internal/trace/ ./internal/telemetry/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_telemetry.json
	$(GO) test -bench='Quorum|DigestSync' -benchmem -run='^$$' ./internal/pstate/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_pstate.json

# Transport comparison: the same lingua franca round trip,
# concurrent-caller demux throughput, and pipelined-window cost over TCP
# loopback vs the in-memory transport, recorded as JSON for
# commit-over-commit comparison. The allocation gate runs first: a
# pooling regression on the zero-alloc hot path fails the target before
# any numbers are recorded.
bench-wire:
	$(GO) test -run 'TestMemRoundTripAllocGate' -count=1 ./internal/wire/
	$(GO) test -bench='RoundTrip|ConcurrentCalls|Pipelined' -benchmem -run='^$$' ./internal/wire/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_wire.json

# The grid benchmark: four closed-loop workloads against real daemons,
# end-to-end metrics gated by BENCHMARK.json (see bench/README.md).
bench-grid:
	bash bench/run.sh

# Causal tracing suite: the trace plane (span records, wire envelope
# compat, collector) under the race detector, then the propagation-
# overhead benchmark — untraced vs unsampled vs fully-sampled round
# trips — recorded as JSON. Compare RoundTripUnsampled against
# RoundTripUntraced (and BenchmarkRoundTripMem in BENCH_wire.json): the
# unsampled delta is the always-on cost of tracing and must stay <5%.
trace:
	$(GO) test -race -count=1 ./internal/outbox/ ./internal/dtrace/ ./internal/wire/ ./internal/logsvc/
	$(GO) test -bench='RoundTrip|SpanRecord|EncodeSpans' -benchmem -run='^$$' ./internal/dtrace/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_dtrace.json

# Replay the SC98 window and emit every figure plus CSV exports.
figures:
	$(GO) run ./cmd/ew-sc98 -fig all -out figures/

# Chaos soak: a mini SC98 over real localhost daemons with seeded fault
# injection (drops, duplicates, resets, torn writes, delays, a Gossip
# partition/heal), race detector on, plus the standalone chaos binary run.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|UnderFaults' -v ./internal/faults/
	$(GO) run ./cmd/ew-sc98 -fig chaos

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
# zero acked checkpoints lost — all under the race detector. The
# member-failover and leader-failover MTTR benchmarks are recorded as
# JSON.
heal:
	$(GO) test -race -count=1 ./internal/ctrl/
	$(GO) test -race -count=1 -run 'TestMember|TestRestartedReplicaResumesAntiEntropy|TestDeploymentSelfHeals|TestDeploymentControlPlaneFailover|TestDeploymentAddAndRetireScheduler|TestDeploymentClose' ./internal/core/
	$(GO) test -race -count=1 -v -run 'TestCtrlHeal|TestCtrlLeaderFailoverHeal' -timeout 10m ./internal/faults/
	$(GO) test -bench='Detector|ReconcileTick|FailoverMTTR' -benchmem -run='^$$' ./internal/ctrl/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_ctrl.json

# Web-scale suite: the scale plane (ring, router, admission, outbox,
# hierarchy) and the sharded-scheduler integration under the race
# detector, the shard-kill chaos test over real daemons, then the E14
# virtual-client sweep recorded as JSON. CI caps the sweep at 100k
# clients; run `EW_SWEEP_MAX_CLIENTS=1000000 make scale` for the full
# curve (the overload point recirculates its backlog and takes ~1 min).
scale:
	$(GO) test -race -count=1 ./internal/outbox/ ./internal/scale/... ./internal/sched/
	$(GO) test -race -count=1 -run 'TestScaleShardKill' -v ./internal/faults/
	EW_SWEEP_MAX_CLIENTS=$${EW_SWEEP_MAX_CLIENTS:-100000} \
		$(GO) test -bench=Sweep -benchmem -benchtime=1x -run='^$$' -timeout 30m ./internal/scale/sweep/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_scale.json

# Grid Observatory suite: the series store, rule engine, alert codec,
# scrape daemon, and snapshot-codec version-skew tests under the race
# detector; the observatory-vs-autoscaler hook; the end-to-end
# slowdown proof (anomaly alert + exemplar + tail-promoted trace) and
# the chaos partition alert, also raced; then the observatory
# benchmarks — ingest, rule eval, scrape rounds, and the scraped vs
# unscraped wire round trip (the scrape-overhead budget is <3%) —
# recorded as JSON for commit-over-commit comparison.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestAutoscalerObsAlertBoost' ./internal/ctrl/
	$(GO) test -race -count=1 -run 'TestObservatorySlowdownE2E|TestChaosSoak' -v ./internal/faults/
	$(GO) test -race -count=1 -run 'TestDeploymentObservatory' ./internal/core/
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/obs/ \
		| $(GO) run ./cmd/ew-benchjson -o BENCH_obs.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forecast-timeout
	$(GO) run ./examples/ramsey-grid
	$(GO) run ./examples/condor-checkpoint
	$(GO) run ./examples/applet-farm

# Untracked outputs only: the BENCH_*.json files are committed records.
clean:
	rm -rf figures/ test_output.txt bench_output.txt .bench_build/ bench/out/
