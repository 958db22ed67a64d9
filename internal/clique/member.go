package clique

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Config parameterizes a clique Member.
type Config struct {
	// Peers is the "home list": every member ID this process should try to
	// form a clique with, including itself (added automatically).
	Peers []string
	// HeartbeatInterval is how often the leader circulates the token.
	HeartbeatInterval time.Duration
	// ProbeInterval is how often a leader probes home-list peers outside
	// its current subclique, seeking merges.
	ProbeInterval time.Duration
	// TokenTimeout is how long a non-leader waits without hearing a token
	// or view update before declaring a partition and forming its own
	// subclique.
	TokenTimeout time.Duration
	// OnChange, if set, is invoked (on the member's goroutine) after each
	// committed view change.
	OnChange func(View)
	// Metrics, if set, records protocol events:
	// clique.token.circulation.<outcome> (histograms of leader token
	// round-trip time, "ok" when the token came back and "lost" when a
	// new circulation superseded it), clique.view.changes /
	// clique.view.split / clique.view.merge counters, the clique.members
	// gauge, and clique.partition.declared. Nil discards.
	Metrics *telemetry.Registry
	// Tracer, if set, roots a causal trace at every token origination;
	// each hop of the circulation (carried by the wire layer's trace
	// envelope) becomes a descendant span, so a rendered trace shows the
	// token's path around the ring. Nil disables.
	Tracer wire.Tracer
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 3 * c.HeartbeatInterval
	}
	if c.TokenTimeout <= 0 {
		c.TokenTimeout = 4 * c.HeartbeatInterval
	}
}

// Member is one participant in the clique protocol. The Gossip pool runs
// one Member per Gossip process to track pool membership, partition into
// subcliques under failure, and rebalance when subcliques merge.
type Member struct {
	cfg Config
	tr  *Endpoint

	mu        sync.Mutex
	view      View
	home      []string // full known universe of peers
	lastHeard time.Time
	stopped   bool
	// tokenOp is the in-flight circulation this leader originated for
	// view tokenSeq (the zero Op when none): timed and, when sampled, the
	// root of its trace; it ends when the token returns, or as lost when
	// superseded.
	tokenSeq uint64
	tokenOp  wire.Op
	// circulation times token circulations. Only the member's goroutine
	// touches it, creating it at the first origination rather than at
	// fleet setup.
	circulation *telemetry.SpanFamily

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates a Member over endpoint tr. Start must be called to begin
// protocol processing.
func New(cfg Config, tr *Endpoint) *Member {
	cfg.fill()
	self := tr.Self()
	home := sortedUnion(cfg.Peers, []string{self})
	m := &Member{
		cfg:  cfg,
		tr:   tr,
		home: home,
		view: View{Seq: 0, Leader: self, Members: []string{self}},
		done: make(chan struct{}),
	}
	return m
}

// Start installs the message handler and launches the protocol timers.
func (m *Member) Start() {
	m.mu.Lock()
	m.lastHeard = time.Now()
	m.cfg.Metrics.Gauge("clique.members").Set(int64(len(m.view.Members)))
	m.mu.Unlock()
	m.tr.SetHandler(m.handle)
	m.wg.Add(1)
	go m.run()
}

// Stop halts protocol processing. The transport is not closed.
func (m *Member) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()
}

// View returns the current committed view.
func (m *Member) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Clone()
}

// IsLeader reports whether this member currently leads its subclique.
func (m *Member) IsLeader() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Leader == m.tr.Self()
}

func (m *Member) run() {
	defer m.wg.Done()
	hb := time.NewTicker(m.cfg.HeartbeatInterval)
	probe := time.NewTicker(m.cfg.ProbeInterval)
	defer hb.Stop()
	defer probe.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-hb.C:
			m.heartbeat()
		case <-probe.C:
			m.probeOutsiders()
		}
	}
}

// heartbeat runs on every tick: leaders circulate the token; followers
// check for token loss.
func (m *Member) heartbeat() {
	self := m.tr.Self()
	m.mu.Lock()
	v := m.view.Clone()
	heard := m.lastHeard
	m.mu.Unlock()

	if v.Leader == self {
		if len(v.Members) > 1 {
			m.originateToken(v)
		}
		return
	}
	if time.Since(heard) > m.cfg.TokenTimeout {
		// Partitioned from the leader: form a singleton subclique and let
		// merge probes rebuild connectivity.
		m.mu.Lock()
		nv := View{Seq: m.view.Seq + 1, Leader: self, Members: []string{self}}
		changed := m.commitLocked(nv)
		m.mu.Unlock()
		if changed {
			m.cfg.Metrics.Counter("clique.partition.declared").Inc()
			m.probeOutsiders()
		}
	}
}

// originateToken starts one token circulation for view v.
func (m *Member) originateToken(v View) {
	if m.circulation == nil {
		m.circulation = m.cfg.Metrics.SpanFamily("clique.token.circulation")
	}
	op := wire.StartOp(m.circulation, m.cfg.Tracer, "clique.token_pass", wire.TraceContext{})
	op.Annotate("leader", v.Leader)
	m.mu.Lock()
	// The previous circulation, if any, never came back.
	m.tokenOp.End(telemetry.OutcomeLost)
	m.tokenSeq = v.Seq
	m.tokenOp = op
	m.mu.Unlock()
	t := &Token{
		Origin:  v.Leader,
		Seq:     v.Seq,
		Members: v.Members,
		Visited: []string{v.Leader},
	}
	m.forwardToken(t, op.Context())
}

// forwardToken sends the token to the next unvisited ring member after
// self, marking unreachable members failed; when everyone has been tried
// the token is returned to the origin (or committed directly if self is
// the origin). tc is the circulation's trace context: the origin passes
// its root span, relays pass the context they received, so every hop
// links back to the same trace.
func (m *Member) forwardToken(t *Token, tc wire.TraceContext) {
	self := m.tr.Self()
	visited := make(map[string]bool, len(t.Visited))
	for _, id := range t.Visited {
		visited[id] = true
	}
	failed := make(map[string]bool, len(t.Failed))
	for _, id := range t.Failed {
		failed[id] = true
	}
	ring := make([]string, len(t.Members))
	copy(ring, t.Members)
	sort.Strings(ring)
	// Position of self in the ring.
	start := 0
	for i, id := range ring {
		if id >= self {
			start = i
			break
		}
	}
	n := len(ring)
	for off := 0; off < n; off++ {
		cand := ring[(start+off)%n]
		if cand == self || cand == t.Origin || visited[cand] || failed[cand] {
			continue
		}
		msg := &Message{Kind: KindToken, From: self, Token: t, Trace: tc}
		if err := m.tr.Send(cand, msg); err == nil {
			return // next member now owns the token
		}
		t.Failed = append(t.Failed, cand)
		failed[cand] = true
	}
	// Everyone tried: deliver back to origin.
	if t.Origin == self {
		m.commitToken(t)
		return
	}
	msg := &Message{Kind: KindToken, From: self, Token: t, Trace: tc}
	if err := m.tr.Send(t.Origin, msg); err != nil {
		// Origin is gone: the timeout path will elect a new leader.
		return
	}
}

// commitToken is executed by the origin when its token returns: surviving
// membership becomes the new view.
func (m *Member) commitToken(t *Token) {
	self := m.tr.Self()
	m.mu.Lock()
	if t.Seq != m.view.Seq || m.view.Leader != self {
		m.mu.Unlock()
		return // stale token from an earlier configuration
	}
	var op wire.Op
	if m.tokenSeq == t.Seq {
		op, m.tokenOp = m.tokenOp, wire.Op{}
	}
	members := sortedUnion(t.Visited, []string{self})
	// Remove any member recorded as failed (it may appear in Visited if it
	// handled the token but later dropped off; Failed wins conservatively).
	if len(t.Failed) > 0 {
		fail := make(map[string]bool, len(t.Failed))
		for _, id := range t.Failed {
			fail[id] = true
		}
		kept := members[:0]
		for _, id := range members {
			if !fail[id] || id == self {
				kept = append(kept, id)
			}
		}
		members = kept
	}
	same := len(members) == len(m.view.Members)
	if same {
		for i := range members {
			if members[i] != m.view.Members[i] {
				same = false
				break
			}
		}
	}
	var nv View
	if same {
		m.lastHeard = time.Now()
		m.mu.Unlock()
		op.Annotate("visited", strconv.Itoa(len(t.Visited)))
		op.End(telemetry.OutcomeOK)
		return
	}
	nv = View{Seq: m.view.Seq + 1, Leader: minID(members), Members: members}
	m.commitLocked(nv)
	v := m.view.Clone()
	m.mu.Unlock()
	op.Annotate("visited", strconv.Itoa(len(t.Visited)))
	op.Annotate("members", strconv.Itoa(len(v.Members)))
	op.End(telemetry.OutcomeOK)
	m.broadcastView(v)
}

// commitLocked installs nv if it dominates the current view. Caller holds
// m.mu. Returns whether the view changed. OnChange fires outside the lock
// via a goroutine-free deferred call pattern: we release and reacquire.
func (m *Member) commitLocked(nv View) bool {
	if !nv.Dominates(m.view) && !(nv.Seq == m.view.Seq && nv.Leader == m.view.Leader) {
		return false
	}
	if nv.Equal(m.view) {
		return false
	}
	m.cfg.Metrics.Counter("clique.view.changes").Inc()
	switch {
	case len(nv.Members) < len(m.view.Members):
		m.cfg.Metrics.Counter("clique.view.split").Inc()
	case len(nv.Members) > len(m.view.Members):
		m.cfg.Metrics.Counter("clique.view.merge").Inc()
	}
	m.cfg.Metrics.Gauge("clique.members").Set(int64(len(nv.Members)))
	m.view = nv.Clone()
	m.lastHeard = time.Now()
	if m.cfg.OnChange != nil {
		cb := m.cfg.OnChange
		v := m.view.Clone()
		m.mu.Unlock()
		cb(v)
		m.mu.Lock()
	}
	return true
}

// broadcastView announces v to all its members (best effort).
func (m *Member) broadcastView(v View) {
	self := m.tr.Self()
	for _, id := range v.Members {
		if id == self {
			continue
		}
		msg := &Message{Kind: KindViewUpdate, From: self, View: v}
		_ = m.tr.Send(id, msg) // unreachable members are caught by the next token
	}
}

// probeOutsiders contacts home-list peers outside the current view,
// seeking subclique merges. Only leaders probe, so merge traffic is
// O(leaders), not O(members).
func (m *Member) probeOutsiders() {
	self := m.tr.Self()
	m.mu.Lock()
	if m.view.Leader != self {
		m.mu.Unlock()
		return
	}
	v := m.view.Clone()
	home := make([]string, len(m.home))
	copy(home, m.home)
	m.mu.Unlock()
	for _, id := range home {
		if id == self || v.Contains(id) {
			continue
		}
		msg := &Message{Kind: KindProbe, From: self, View: v}
		_ = m.tr.Send(id, msg)
	}
}

// handle processes one inbound protocol message.
func (m *Member) handle(msg *Message) {
	switch msg.Kind {
	case KindToken:
		m.onToken(msg)
	case KindViewUpdate:
		m.mu.Lock()
		m.commitLocked(msg.View)
		m.mu.Unlock()
	case KindProbe:
		m.onForeignView(msg.From, msg.View, true)
	case KindProbeAck:
		m.onForeignView(msg.From, msg.View, false)
	}
}

func (m *Member) onToken(msg *Message) {
	t := msg.Token
	if t == nil {
		return
	}
	self := m.tr.Self()
	m.mu.Lock()
	if t.Seq < m.view.Seq {
		mine := m.view.Clone()
		m.mu.Unlock()
		// A stale token means its origin runs an older configuration than
		// ours — typically it was declared failed and dropped from the view
		// while it still believes it leads. Both sides are then stable but
		// split: its probes skip us (its view contains us), and our view may
		// not contain it at all. Nudge the origin with our view so the
		// normal merge path reunifies the configurations.
		if t.Origin != self {
			_ = m.tr.Send(t.Origin, &Message{Kind: KindProbeAck, From: self, View: mine})
		}
		return
	}
	// A token for a configuration newer than our view means we missed the
	// view-update broadcast (it was dropped or its send failed). The token
	// itself announces the configuration it circulates for — the origin
	// committed {Seq, Origin, Members} before originating it — so adopt it
	// directly. Relaying alone would leave us stranded forever: the
	// origin's view contains us, so its merge probes skip us, tokens keep
	// refreshing lastHeard so we never declare a partition, and the
	// one-shot broadcast is never repeated.
	if t.Seq > m.view.Seq && t.Origin != self {
		m.commitLocked(View{Seq: t.Seq, Leader: t.Origin, Members: t.Members})
	}
	m.lastHeard = time.Now()
	m.mu.Unlock()
	if t.Origin == self {
		m.commitToken(t)
		return
	}
	// Append self to the visited list and pass it on.
	already := false
	for _, id := range t.Visited {
		if id == self {
			already = true
			break
		}
	}
	if !already {
		t.Visited = append(t.Visited, self)
	}
	// Relay under the inbound trace context so the whole circulation
	// stays one tree rooted at the origin's clique.token_pass span.
	m.forwardToken(t, msg.Trace)
}

// onForeignView merges knowledge of another subclique's view. The member
// that would lead the union (the minimum ID) commits and broadcasts it;
// others nudge the would-be leader.
func (m *Member) onForeignView(from string, their View, reply bool) {
	self := m.tr.Self()
	m.mu.Lock()
	mine := m.view.Clone()
	m.mu.Unlock()

	if their.Equal(mine) {
		return
	}
	// If their view strictly dominates and already includes us, just adopt.
	if their.Dominates(mine) && their.Contains(self) {
		m.mu.Lock()
		m.commitLocked(their)
		m.mu.Unlock()
		return
	}
	union := sortedUnion(mine.Members, their.Members)
	leader := minID(union)
	seq := mine.Seq
	if their.Seq > seq {
		seq = their.Seq
	}
	if leader == self {
		nv := View{Seq: seq + 1, Leader: self, Members: union}
		m.mu.Lock()
		changed := m.commitLocked(nv)
		v := m.view.Clone()
		m.mu.Unlock()
		if changed {
			m.broadcastView(v)
		}
		return
	}
	if reply {
		// Tell the prober who we are so its side can converge too.
		_ = m.tr.Send(from, &Message{Kind: KindProbeAck, From: self, View: mine})
	}
	// Nudge the would-be union leader with our view.
	if leader != from {
		_ = m.tr.Send(leader, &Message{Kind: KindProbe, From: self, View: mine})
	}
}
