package pstate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// ErrSpooled reports that a write could not reach a write quorum and was
// parked in the local write-behind spool instead: the caller's data is
// safe in this process and will be flushed when replicas become reachable,
// but it is NOT yet durable — a crash of this process loses it. Callers
// that need the durability guarantee must treat ErrSpooled as a failure;
// callers riding the degradation ladder may treat it as deferred success.
var ErrSpooled = errors.New("pstate: write quorum unreachable, spooled locally")

// ErrNoQuorum reports that a quorum operation reached too few replicas.
var ErrNoQuorum = errors.New("pstate: quorum unreachable")

// ReplicaSetConfig parameterizes a quorum client over N persistent state
// managers.
type ReplicaSetConfig struct {
	// Addrs lists the replica managers (N). Order does not matter for
	// correctness — every operation contacts all of them in parallel.
	Addrs []string
	// WriteQuorum (W) defaults to a majority of N. The read quorum (R) is
	// always a majority of the current roster, so W+R > N makes reads see
	// the latest acknowledged write.
	WriteQuorum int
	// Timeout bounds each per-replica call (default 2s).
	Timeout time.Duration
	// Health, if set, records per-replica successes/failures so other
	// subsystems sharing the tracker skip dead managers.
	Health *wire.HealthTracker
	// Metrics, if set, records quorum outcomes, read repairs, and spool
	// depth. Nil discards.
	Metrics *telemetry.Registry
	// Tracer, if set, records quorum writes/reads as spans when the
	// operation runs under a trace context (StoreCtx/FetchCtx); each
	// per-replica RPC then appears as a child via the wire client's call
	// spans. Nil disables.
	Tracer wire.Tracer
}

// ReplicaSet is the replicated-state client: versioned quorum writes (W of
// N acks, version from the highest observed + 1), quorum reads with
// reconciliation and read-repair, and a local write-behind spool that
// absorbs writes while a quorum is unreachable and flushes on reconnect.
//
// This is what turns the paper's best-effort "checkpoint to several
// trusted sites" into a durability contract: an acknowledged write is on
// at least W replicas, and a quorum read intersects every write quorum.
type ReplicaSet struct {
	cfg ReplicaSetConfig
	wc  *wire.Client

	mu    sync.Mutex
	addrs []string           // current roster (mutable: SetAddrs follows promotions)
	w     int                // current write quorum size
	autoW bool               // WriteQuorum was defaulted: recompute majority on roster change
	spool map[string]*Object // name -> freshest unflushed write
}

// NewReplicaSet builds a quorum client sharing the caller's wire.Client
// (and therefore its dialer, retry policy, and connection cache).
func NewReplicaSet(wc *wire.Client, cfg ReplicaSetConfig) (*ReplicaSet, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("pstate: replica set needs at least one manager address")
	}
	majority := len(cfg.Addrs)/2 + 1
	autoW := false
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum, autoW = majority, true
	}
	if cfg.WriteQuorum > len(cfg.Addrs) {
		return nil, fmt.Errorf("pstate: quorum W=%d impossible with %d replicas",
			cfg.WriteQuorum, len(cfg.Addrs))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &ReplicaSet{
		cfg:   cfg,
		wc:    wc,
		addrs: append([]string(nil), cfg.Addrs...),
		w:     cfg.WriteQuorum,
		autoW: autoW,
		spool: make(map[string]*Object),
	}, nil
}

// Addrs returns the current replica addresses.
func (r *ReplicaSet) Addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.addrs...)
}

// SetAddrs repoints the replica set at a new roster — the control
// plane's promotion path: clients learn the post-promotion quorum over
// Gossip and follow it without restarting. A defaulted write quorum is
// recomputed as a majority of the new roster; an explicitly configured
// one is kept (clamped to the roster size). An empty or unchanged
// roster is a no-op.
func (r *ReplicaSet) SetAddrs(addrs []string) {
	if len(addrs) == 0 {
		return
	}
	r.mu.Lock()
	same := len(addrs) == len(r.addrs)
	if same {
		for i := range addrs {
			if addrs[i] != r.addrs[i] {
				same = false
				break
			}
		}
	}
	if same {
		r.mu.Unlock()
		return
	}
	r.addrs = append([]string(nil), addrs...)
	majority := len(addrs)/2 + 1
	if r.autoW {
		r.w = majority
	} else if r.w > len(addrs) {
		r.w = len(addrs)
	}
	r.mu.Unlock()
	r.cfg.Metrics.Counter("pstate.replica.roster_changes").Inc()
}

// quorums snapshots the roster and quorum sizes for one operation, so a
// concurrent SetAddrs cannot split an operation across two rosters. The
// read quorum is a majority of the roster.
func (r *ReplicaSet) quorums() (addrs []string, w, rq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addrs, r.w, len(r.addrs)/2 + 1
}

// replicaResult is one replica's answer to a fan-out operation.
type replicaResult struct {
	addr string
	obj  *Object // pull result (nil if absent)
	ver  uint64  // store-at: version now current at the replica
	err  error
}

// fanOut runs one call against every replica concurrently: issue starts a
// pipelined call per address (it must not block), then the results are
// collected and decoded in order. Replicas sharing a connection ride the
// same pipeline instead of paying one goroutine plus one in-flight slot
// per call. decode sees only successful replies (the response packet is
// released after it returns); transport errors land in replicaResult.err.
// Per-replica health is recorded; a *wire.RemoteError counts as a response
// (the replica is alive and answered definitively).
func (r *ReplicaSet) fanOut(addrs []string,
	issue func(addr string) *wire.PendingCall,
	decode func(addr string, resp *wire.Packet) replicaResult) []replicaResult {
	calls := make([]*wire.PendingCall, len(addrs))
	for i, addr := range addrs {
		calls[i] = issue(addr)
	}
	results := make([]replicaResult, len(addrs))
	for i, addr := range addrs {
		resp, err := calls[i].Wait()
		var res replicaResult
		if err != nil {
			res = replicaResult{addr: addr, err: err}
		} else {
			res = decode(addr, resp)
			res.addr = addr
			resp.Release()
		}
		if h := r.cfg.Health; h != nil {
			var remote *wire.RemoteError
			if res.err == nil || errors.As(res.err, &remote) {
				h.Success(addr)
			} else {
				h.Failure(addr)
			}
		}
		results[i] = res
	}
	return results
}

// Store performs a versioned quorum write: observe the highest version any
// reachable replica (or the spool) holds, write name/class/data at that
// version + 1 to every replica, and succeed once W replicas acknowledged.
// If fewer than W acknowledge, the write is parked in the write-behind
// spool and ErrSpooled is returned alongside the assigned version.
// A validation rejection from any replica fails the write outright (the
// object itself is bad) and nothing is spooled.
func (r *ReplicaSet) Store(name, class string, data []byte) (uint64, error) {
	return r.StoreCtx(wire.TraceContext{}, name, class, data)
}

// StoreCtx is Store under a causal trace context: the quorum write is
// recorded as a child span of tc, and every per-replica StoreAt call
// nests under it via the wire client's call spans.
func (r *ReplicaSet) StoreCtx(tc wire.TraceContext, name, class string, data []byte) (uint64, error) {
	if name == "" {
		return 0, fmt.Errorf("pstate: empty object name")
	}
	sp := wire.StartOp(nil, r.cfg.Tracer, "pstate.quorum_write", tc)
	sp.Annotate("object", name)
	tc = sp.Context()
	r.FlushSpool() // opportunistic: reconnects drain the backlog first
	ver := r.nextVersion(tc, name)
	o := &Object{Name: name, Class: class, Version: ver, Data: data}
	acks, n, w, err := r.quorumWrite(tc, o)
	if err != nil {
		r.cfg.Metrics.Counter("pstate.replica.write.rejected").Inc()
		sp.End(telemetry.OutcomeError)
		return 0, err
	}
	sp.Annotate("acks", fmt.Sprintf("%d/%d", acks, n))
	if acks >= w {
		r.cfg.Metrics.Counter("pstate.replica.write.quorum_ok").Inc()
		sp.End(telemetry.OutcomeOK)
		return ver, nil
	}
	r.spoolPut(o)
	r.cfg.Metrics.Counter("pstate.replica.write.spooled").Inc()
	sp.End(telemetry.OutcomeSpooled)
	return ver, ErrSpooled
}

// Delete performs a quorum delete: a tombstone written one version above
// the highest observed, propagated exactly like a store so replicas that
// miss it converge via anti-entropy.
func (r *ReplicaSet) Delete(name string) error {
	r.FlushSpool()
	ver := r.nextVersion(wire.TraceContext{}, name)
	ts := &Object{Name: name, Version: ver, Tombstone: true}
	acks, _, w, err := r.quorumWrite(wire.TraceContext{}, ts)
	if err != nil {
		return err
	}
	if acks >= w {
		r.cfg.Metrics.Counter("pstate.replica.write.quorum_ok").Inc()
		return nil
	}
	r.spoolPut(ts)
	r.cfg.Metrics.Counter("pstate.replica.write.spooled").Inc()
	return ErrSpooled
}

// nextVersion derives the write version: highest version observed across
// reachable replicas and the local spool, plus one. Unreachable replicas
// contribute nothing — a later anti-entropy round or read repair resolves
// any resulting conflict deterministically.
func (r *ReplicaSet) nextVersion(tc wire.TraceContext, name string) uint64 {
	addrs, _, _ := r.quorums()
	var high uint64
	for _, res := range r.fanOut(addrs,
		func(addr string) *wire.PendingCall { return goPull(r.wc, addr, name, tc, r.cfg.Timeout) },
		func(addr string, resp *wire.Packet) replicaResult {
			o, _, err := decodePull(resp)
			return replicaResult{obj: o, err: err}
		}) {
		if res.err == nil && res.obj != nil && res.obj.Version > high {
			high = res.obj.Version
		}
	}
	r.mu.Lock()
	if sp := r.spool[name]; sp != nil && sp.Version > high {
		high = sp.Version
	}
	r.mu.Unlock()
	return high + 1
}

// quorumWrite sends o to every replica and counts acknowledgements. A
// response — applied or superseded by a newer version — is an ack: either
// way the replica durably holds a record at least as new as o. A
// validation rejection (RemoteError) aborts with that error. The roster
// and write quorum are snapshotted once (n, w) so a concurrent roster
// change cannot split the write.
func (r *ReplicaSet) quorumWrite(tc wire.TraceContext, o *Object) (acks, n, w int, err error) {
	addrs, w, _ := r.quorums()
	var rejection error
	for _, res := range r.fanOut(addrs,
		func(addr string) *wire.PendingCall { return goStoreAt(r.wc, addr, o, tc, r.cfg.Timeout) },
		func(addr string, resp *wire.Packet) replicaResult {
			_, cur, err := decodeStoreAt(resp)
			return replicaResult{ver: cur, err: err}
		}) {
		if res.err == nil {
			acks++
			continue
		}
		var remote *wire.RemoteError
		if errors.As(res.err, &remote) {
			rejection = res.err // definitive: the object was refused
		}
	}
	if rejection != nil {
		return acks, len(addrs), w, rejection
	}
	return acks, len(addrs), w, nil
}

// Fetch performs a quorum read: pull from every replica in parallel,
// reconcile to the record that supersedes all others, push that record
// back to any stale responder (read repair), and return it. A tombstone
// or a wholly absent name reads as not-found. If fewer than R replicas
// responded the result is returned best-effort with degraded accounting —
// the caller is mid-partition and stale data beats no data (the paper's
// availability-first stance), but the quorum guarantee does not hold.
func (r *ReplicaSet) Fetch(name string) (*Object, bool, error) {
	return r.FetchCtx(wire.TraceContext{}, name)
}

// FetchCtx is Fetch under a causal trace context: the quorum read (and
// any read repairs it triggers) is recorded as a child span of tc.
func (r *ReplicaSet) FetchCtx(tc wire.TraceContext, name string) (*Object, bool, error) {
	sp := wire.StartOp(nil, r.cfg.Tracer, "pstate.quorum_read", tc)
	sp.Annotate("object", name)
	tc = sp.Context()
	o, found, err := r.fetch(tc, name)
	switch {
	case err != nil:
		sp.End(telemetry.OutcomeError)
	default:
		sp.End(telemetry.OutcomeOK)
	}
	return o, found, err
}

func (r *ReplicaSet) fetch(tc wire.TraceContext, name string) (*Object, bool, error) {
	r.FlushSpool()
	addrs, _, readQuorum := r.quorums()
	results := r.fanOut(addrs,
		func(addr string) *wire.PendingCall { return goPull(r.wc, addr, name, tc, r.cfg.Timeout) },
		func(addr string, resp *wire.Packet) replicaResult {
			o, _, err := decodePull(resp)
			return replicaResult{obj: o, err: err}
		})
	responders := 0
	var freshest *Object
	for _, res := range results {
		if res.err != nil {
			continue
		}
		responders++
		if res.obj != nil && res.obj.Supersedes(freshest) {
			freshest = res.obj
		}
	}
	// Read-your-writes across the spool: a parked write newer than
	// anything the replicas returned wins.
	r.mu.Lock()
	if sp := r.spool[name]; sp != nil && sp.Supersedes(freshest) {
		cp := *sp
		freshest = &cp
	}
	r.mu.Unlock()
	if responders == 0 {
		if freshest != nil && !freshest.Tombstone {
			return freshest, true, nil
		}
		return nil, false, fmt.Errorf("pstate: %q: %w (0/%d replicas reachable)", name, ErrNoQuorum, len(addrs))
	}
	if responders < readQuorum {
		r.cfg.Metrics.Counter("pstate.replica.read.degraded").Inc()
	} else {
		r.cfg.Metrics.Counter("pstate.replica.read.quorum_ok").Inc()
	}
	if freshest == nil {
		return nil, false, nil
	}
	// Read repair: push the reconciled record to every responder holding
	// something older, so one quorum read heals the stragglers it touched.
	for _, res := range results {
		if res.err != nil {
			continue
		}
		if res.obj == nil || freshest.Supersedes(res.obj) {
			if applied, _, err := storeAt(r.wc, res.addr, freshest, tc, r.cfg.Timeout); err == nil && applied {
				r.cfg.Metrics.Counter("pstate.replica.read_repair").Inc()
			}
		}
	}
	if freshest.Tombstone {
		return nil, false, nil
	}
	return freshest, true, nil
}

// List merges the live object names visible across all reachable replicas.
func (r *ReplicaSet) List() ([]string, error) {
	addrs, _, _ := r.quorums()
	seen := make(map[string]DigestEntry)
	responders := 0
	for _, res := range r.fanOut(addrs,
		func(addr string) *wire.PendingCall { return goDigest(r.wc, addr, wire.TraceContext{}, r.cfg.Timeout) },
		func(addr string, resp *wire.Packet) replicaResult {
			dig, err := decodeDigest(resp)
			if err != nil {
				return replicaResult{err: err}
			}
			// decode callbacks run sequentially in the collect loop, so the
			// shared map needs no lock.
			for _, ent := range dig {
				if cur, ok := seen[ent.Name]; !ok || ent.supersedes(cur) {
					seen[ent.Name] = ent
				}
			}
			return replicaResult{}
		}) {
		if res.err == nil {
			responders++
		}
	}
	if responders == 0 {
		return nil, fmt.Errorf("pstate: list: %w", ErrNoQuorum)
	}
	out := make([]string, 0, len(seen))
	for n, ent := range seen {
		if !ent.Tombstone {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// spoolPut parks a write for later flushing, keeping only the freshest
// record per name.
func (r *ReplicaSet) spoolPut(o *Object) {
	r.mu.Lock()
	if cur := r.spool[o.Name]; cur == nil || o.Supersedes(cur) {
		r.spool[o.Name] = o
	}
	depth := len(r.spool)
	r.mu.Unlock()
	r.cfg.Metrics.Gauge("pstate.replica.spool_depth").Set(int64(depth))
}

// SpoolDepth reports how many writes are parked awaiting a quorum.
func (r *ReplicaSet) SpoolDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spool)
}

// FlushSpool retries every parked write against the replica set and drops
// the ones that reach a write quorum (or that a replica already supersedes
// — the world moved on past the parked version). It returns how many
// entries drained. Called opportunistically at the top of every operation
// and explicitly on reconnect paths (e.g. Component.Reregister).
func (r *ReplicaSet) FlushSpool() int {
	r.mu.Lock()
	if len(r.spool) == 0 {
		r.mu.Unlock()
		return 0
	}
	pending := make([]*Object, 0, len(r.spool))
	for _, o := range r.spool {
		pending = append(pending, o)
	}
	r.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].Name < pending[j].Name })
	flushed := 0
	for _, o := range pending {
		acks, _, w, err := r.quorumWrite(wire.TraceContext{}, o)
		if err != nil || acks < w {
			continue
		}
		r.mu.Lock()
		if cur := r.spool[o.Name]; cur != nil && !cur.Supersedes(o) {
			delete(r.spool, o.Name)
			flushed++
		}
		depth := len(r.spool)
		r.mu.Unlock()
		r.cfg.Metrics.Gauge("pstate.replica.spool_depth").Set(int64(depth))
	}
	if flushed > 0 {
		r.cfg.Metrics.Counter("pstate.replica.spool_flushed").Add(int64(flushed))
	}
	return flushed
}

// FetchDigest retrieves one replica's full digest over the wire — the
// probe convergence checks and tools use to compare replica fleets.
func FetchDigest(wc *wire.Client, addr string, timeout time.Duration) ([]DigestEntry, error) {
	return fetchDigest(wc, addr, wire.TraceContext{}, timeout)
}

// PullObject fetches one replication-plane record (tombstones included)
// from a single replica, bypassing quorum — for per-replica durability
// verification.
func PullObject(wc *wire.Client, addr, name string, timeout time.Duration) (*Object, bool, error) {
	return pullObject(wc, addr, name, wire.TraceContext{}, timeout)
}

// --- replication-plane client calls (shared with anti-entropy) ---

// objMessage adapts a replication-plane Object to wire.Message, reserving
// its full encoded size in one grow.
type objMessage struct{ o *Object }

func (m objMessage) EncodeWire(e *wire.Encoder) {
	o := m.o
	e.Grow(21 + len(o.Name) + len(o.Class) + len(o.Data))
	putObject(e, o)
}

// goStoreAt issues a pipelined versioned replica write.
func goStoreAt(wc *wire.Client, addr string, o *Object, tc wire.TraceContext, timeout time.Duration) *wire.PendingCall {
	req := wire.NewRequest(MsgStoreAt, objMessage{o})
	req.Trace = tc
	return wc.Go(addr, req, timeout)
}

// goPull issues a pipelined replication-plane read.
func goPull(wc *wire.Client, addr, name string, tc wire.TraceContext, timeout time.Duration) *wire.PendingCall {
	req := wire.NewRequest(MsgPull, wire.MessageFunc(func(e *wire.Encoder) { e.PutString(name) }))
	req.Trace = tc
	return wc.Go(addr, req, timeout)
}

// goDigest issues a pipelined digest fetch.
func goDigest(wc *wire.Client, addr string, tc wire.TraceContext, timeout time.Duration) *wire.PendingCall {
	req := wire.NewRequest(MsgDigest, nil)
	req.Trace = tc
	return wc.Go(addr, req, timeout)
}

// decodeStoreAt decodes a MsgStoreAt reply: (applied, current version).
func decodeStoreAt(resp *wire.Packet) (bool, uint64, error) {
	d := wire.NewDecoder(resp.Payload)
	applied, err := d.Bool()
	if err != nil {
		return false, 0, err
	}
	cur, err := d.Uint64()
	return applied, cur, err
}

// decodePull decodes a MsgPull reply. The object's data is copied out of
// the packet buffer, so it outlives the packet's release.
func decodePull(resp *wire.Packet) (*Object, bool, error) {
	d := wire.NewDecoder(resp.Payload)
	found, err := d.Bool()
	if err != nil || !found {
		return nil, false, err
	}
	o, err := getObject(d)
	if err != nil {
		return nil, false, err
	}
	return o, true, nil
}

// decodeDigest decodes a MsgDigest reply.
func decodeDigest(resp *wire.Packet) ([]DigestEntry, error) {
	d := wire.NewDecoder(resp.Payload)
	n, err := d.Count(14) // name len(4) + version(8) + crc(4) is >14; floor is fine
	if err != nil {
		return nil, err
	}
	out := make([]DigestEntry, 0, n)
	for i := 0; i < n; i++ {
		var ent DigestEntry
		if ent.Name, err = d.String(); err != nil {
			return nil, err
		}
		if ent.Version, err = d.Uint64(); err != nil {
			return nil, err
		}
		if ent.CRC, err = d.Uint32(); err != nil {
			return nil, err
		}
		if ent.Tombstone, err = d.Bool(); err != nil {
			return nil, err
		}
		out = append(out, ent)
	}
	return out, nil
}

// storeAt sends a versioned replica write and decodes (applied, current
// version) — the synchronous form, retrying under the client's policy.
// tc, when valid, rides the packet so the per-replica write appears in
// the caller's trace tree.
func storeAt(wc *wire.Client, addr string, o *Object, tc wire.TraceContext, timeout time.Duration) (bool, uint64, error) {
	req := wire.NewRequest(MsgStoreAt, objMessage{o})
	req.Trace = tc
	resp, err := wc.Call(addr, req, timeout)
	if err != nil {
		return false, 0, err
	}
	defer resp.Release()
	return decodeStoreAt(resp)
}

// pullObject fetches a replication-plane record (tombstones included).
func pullObject(wc *wire.Client, addr, name string, tc wire.TraceContext, timeout time.Duration) (*Object, bool, error) {
	req := wire.NewRequest(MsgPull, wire.MessageFunc(func(e *wire.Encoder) { e.PutString(name) }))
	req.Trace = tc
	resp, err := wc.Call(addr, req, timeout)
	if err != nil {
		return nil, false, err
	}
	defer resp.Release()
	return decodePull(resp)
}

// fetchDigest retrieves a replica's full digest.
func fetchDigest(wc *wire.Client, addr string, tc wire.TraceContext, timeout time.Duration) ([]DigestEntry, error) {
	req := wire.NewRequest(MsgDigest, nil)
	req.Trace = tc
	resp, err := wc.Call(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return decodeDigest(resp)
}
