// Package scale is the web-scale coordination layer: the pieces that let
// the EveryWare toolkit's flat, O(n) SC98 design survive hundreds of
// thousands of clients.
//
// Four mechanisms, each usable on its own and composed by the sched
// layer and the sweep:
//
//   - A consistent-hash ring (Ring) shards scheduler state across N sched
//     servers with bounded key movement on membership change. The current
//     ring is published through Gossip under RingKey; clients route
//     reports by work-key through a Router and fail over along ring
//     successors.
//   - Report aggregation: region members roll summaries up (Rollup),
//     and the sweep models gateways that coalesce their applets' reports
//     per shard, so per-scheduler inbound message rate can grow with
//     shard count, not client count. The per-destination buffer a
//     batching gateway needs is outbox.Pending.
//   - Hierarchical cliques (Regions/Bridge): members split into region
//     sub-pools whose leaders republish rollups into a top pool, keeping
//     per-member gossip traffic O(region) and top-ring traffic
//     O(#regions) instead of O(n).
//   - Admission control (Admitter): a token bucket per shard with
//     priority-aware load shedding. A shed report is a degraded success —
//     the client keeps computing and retries the report later — mirroring
//     pstate's ErrSpooled contract.
package scale

import "errors"

// RingKey is the gossip state key under which the current scheduler ring
// is published. Components subscribe to it the same way they subscribe to
// the scheduler roster and swap routing atomically on updates.
const RingKey = "everyware/sched-ring"

// ErrShed reports that a report was refused by admission control: the
// scheduler is over its inbound budget and this request's priority lost
// the shed decision. The caller's work is NOT lost — the client keeps
// computing on its current unit and re-reports later — but the scheduler
// recorded nothing. Callers that need the report recorded must treat
// ErrShed as a failure; callers riding the degradation ladder (all report
// loops) treat it as deferred success, exactly like pstate.ErrSpooled.
var ErrShed = errors.New("scale: report shed by admission control")
