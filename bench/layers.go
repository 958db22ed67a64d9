package main

import (
	"strconv"

	"everyware/internal/gossip"
	"everyware/internal/pstate"
)

// fillLayers turns what the T, S and M instruments read over the traced
// phase into the per-layer table. A metric whose layer the workload does
// not exercise reads 0; every workload emits the whole table, so that a
// change which starts exercising a layer shows up as a number that moved.
func fillLayers(e *emitter, ref, ph *phase, tr *tracedPhase, end fleetEnd) {
	ops := float64(ph.ops())
	secs := ph.elapsed.Seconds()
	perOp := func(v float64) float64 { return v / ops }
	mean := func(n, total float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	spanP50 := func(name string) float64 { return median(tr.log.durationsUS(name)) }

	// driver / runtime
	ws := ph.windows()
	e.set("driver.op_us_p99", quantile(ph.latenciesUS(), 0.99))
	e.set("driver.samples", ops)
	e.set("driver.window_cv_pct", cvPct(ws.rate))
	e.set("driver.disturbed_pct", disturbedPct(ws.rate))
	refRate, _, _, _ := ref.onReference(ref.windows())
	rate, _, _, _ := ph.onReference(ws)
	e.set("driver.trace_overhead_pct", 100*(refRate-rate)/refRate)
	e.set("runtime.gc_per_s", float64(ph.mem1.NumGC-ph.mem0.NumGC)/secs)
	e.set("runtime.gc_pause_us_per_op", perOp(float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs)/1e3))

	// core [S]
	e.set("core.run_cycle.us_p50", spanP50("core.run_cycle"))
	e.set("core.checkpoint.us_p50", spanP50("core.checkpoint"))
	e.set("core.recover.us_p50", spanP50("core.recover"))
	e.set("core.checkpoint.spooled", float64(end.spooled))

	// wire [T]
	e.set("wire.msgs_per_op", perOp(tr.t1.msgs-tr.t0.msgs))
	e.set("wire.bytes_per_op", perOp(tr.t1.bytes-tr.t0.bytes))
	e.set("wire.writes_per_op", perOp(tr.t1.writes-tr.t0.writes))
	e.set("wire.dials", tr.t1.dials-tr.t0.dials)
	// wire [M]
	calls, callUS := tr.m.hist("wire.client.call.")
	e.set("wire.client.calls_per_op", perOp(calls))
	e.set("wire.client.call.us_mean", mean(calls, callUS))
	e.set("wire.client.retries", tr.m.counter("wire.client.retries"))
	handled, handleUS := tr.m.hist("wire.server.handle.")
	e.set("wire.server.handle.us_mean", mean(handled, handleUS))
	e.set("wire.pool.miss_pct", 100*mean(tr.t1.poolGets-tr.t0.poolGets, tr.t1.poolMisses-tr.t0.poolMisses))
	e.set("wire.pipeline.inflight_max", float64(tr.ct.inflightMax.Load()))

	// sched [M]
	reports := tr.m.counter("sched.reports")
	e.set("sched.reports_per_op", perOp(reports))
	decisions, decisionUS := tr.m.hist("sched.decision.")
	e.set("sched.decision.us_mean", mean(decisions, decisionUS))
	e.set("sched.shard_imbalance_pct", imbalancePct(end.shardReports))
	e.set("sched.migrations", float64(end.migrations))
	e.set("sched.client.failovers", tr.m.counter("sched.client.failover"))

	// logsvc [M, S]
	e.set("logsvc.appended_per_op", perOp(float64(end.logged)))
	e.set("logsvc.dropped", float64(end.ringDropped))
	e.set("logsvc.drain_ms", end.drainMS)

	// pstate [M]: the replica-plane calls are counted where they are
	// served, by message type.
	stores, storeUS := tr.m.hist("pstate.store_at.")
	e.set("pstate.store_at_per_op", perOp(stores))
	e.set("pstate.store_at.us_mean", mean(stores, storeUS))
	pulls, _ := tr.m.hist(handleHist(uint32(pstate.MsgPull)))
	e.set("pstate.pull_per_op", perOp(pulls))
	e.set("pstate.read_repairs", tr.m.counter("pstate.replica.read_repair"))
	e.set("pstate.digest_mismatch", float64(end.digestMismatch))

	// gossip / clique [S, M]
	e.set("gossip.sync_round.us_p50", spanP50("gossip.sync_round"))
	polls, _ := tr.m.hist(handleHist(uint32(gossip.MsgGetState)))
	pushes, _ := tr.m.hist(handleHist(uint32(gossip.MsgPutState)))
	e.set("gossip.polls_per_op", perOp(polls))
	e.set("gossip.pushes_per_op", perOp(pushes))
	e.set("gossip.poll_fail", tr.m.counter("gossip.poll.fail"))
	tokens, _ := tr.m.hist("clique.token.circulation")
	e.set("clique.circulations_per_s", tokens/secs)

	// ramsey [M]
	e.set("ramsey.int_ops_per_s", float64(end.intOps)/secs)
}

// handleHist names the server-side span histograms of one message type.
func handleHist(t uint32) string {
	return "wire.server.handle.t" + strconv.FormatUint(uint64(t), 10) + "."
}

// imbalancePct is (max − min) ÷ mean over the shards that handled any
// report, in percent. A shard owning no component handles none and is not
// part of the comparison.
func imbalancePct(perShard []int64) float64 {
	var lo, hi, sum, n float64
	for _, v := range perShard {
		if v == 0 {
			continue
		}
		x := float64(v)
		if n == 0 || x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * (hi - lo) / (sum / n)
}

// fillShares models where an op's time goes: a layer's probe (or span)
// time × its calls per op, as a share of the traced op time. It
// is a model from outside — calls that overlap (the pipelined quorum
// fan-out, the off-path log forward, two workers on two cores) each count
// in full — so the shares need not sum to 100; share.residual_pct is what
// is left and is printed, never hidden. Negative means the layers overlap
// by that much; positive is scheduling, waiting and everything timing from
// outside cannot see.
func fillShares(e *emitter, ph *phase) {
	v := e.values
	// One driver, one op in flight: an op's time is the inverse of the rate,
	// here the rate of the quiet tenth of the windows, as the probes are
	// the quiet tenth of their batches.
	opUS := 1e6 / quietHigh(ph.windows().rate)
	reports := v["sched.reports_per_op"]
	gossipCalls := v["gossip.polls_per_op"] + v["gossip.pushes_per_op"]

	// Request/response pairs that crossed the transport, pipelined calls
	// included (those bypass the client's call span, so the M count
	// wire.client.calls_per_op misses them).
	calls := v["wire.msgs_per_op"] / 2
	// Who asks the forecaster what: the runner and the gossip read a
	// time-out forecast before each call and record the response time after
	// it. The rate a shard records for each report is inside
	// sched.handle.us and stays in the scheduler's share.
	timedCalls := reports + gossipCalls
	forecastUS := timedCalls * (v["forecast.forecast.us"] + v["forecast.record.us"])
	// The run's own useful integer operations per op, priced at the probe's
	// time per operation.
	ramseyUS := 0.0
	if v["ramsey.step.int_ops"] > 0 {
		intOpsPerOp := v["ramsey.int_ops_per_s"] * ph.elapsed.Seconds() / float64(ph.ops())
		ramseyUS = intOpsPerOp*v["ramsey.step.us"]/v["ramsey.step.int_ops"] + reports*v["ramsey.state_codec.us"]
	}
	layerUS := map[string]float64{
		"wire":     calls * v["wire.echo_rtt.us"],
		"sched":    reports * (v["sched.handle.us"] + v["sched.codec.us"] + v["scale.route.us"]),
		"forecast": forecastUS,
		"logsvc":   v["logsvc.appended_per_op"] * v["logsvc.append.us"],
		"pstate":   v["pstate.store_at_per_op"]*v["pstate.store_at.us"] + v["pstate.pull_per_op"]*v["pstate.pull.us"],
		"ramsey":   ramseyUS,
	}
	if gossipCalls > 0 && v["gossip.sync_round.us_p50"] > 0 {
		// Gossip's own time is the synchronization pass minus the wire
		// calls and forecaster calls made inside it, plus the writer's Set.
		self := v["gossip.sync_round.us_p50"] - gossipCalls*(v["wire.echo_rtt.us"]+v["forecast.forecast.us"]+v["forecast.record.us"])
		layerUS["gossip"] = max(0, self) + v["gossip.agent_set.us"]
	}
	residual := 100.0
	for _, layer := range []string{"wire", "sched", "forecast", "logsvc", "pstate", "gossip", "ramsey"} {
		pct := 100 * max(0, layerUS[layer]) / opUS
		e.set("share."+layer+"_pct", pct)
		residual -= pct
	}
	e.set("share.residual_pct", residual)
}
