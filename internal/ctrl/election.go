package ctrl

import (
	"everyware/internal/clique"
	"everyware/internal/pstate"
)

// Controller replication: every controller in the group ingests the full
// heartbeat stream (beaters broadcast), so each maintains an
// independent, warm phi-detector state — but only one may act. The
// controllers form a sub-clique over their own wire servers and elect
// the min-address leader with the same token protocol the Gossip pool
// uses; the elected leader then claims a strictly higher epoch in the
// pstate epoch register at quorum before running any reconcile action,
// and re-validates that claim every reconcile round. Election says who
// SHOULD act; the fencing epoch decides whose actions COUNT — a leader
// partitioned into a minority keeps winning its own singleton election
// but fails the fence and stands down (deposed), so a split brain never
// yields two acting controllers.

// startElection wires the controller into its sub-clique (or assumes
// solo leadership when no peers are configured). Called from Start once
// the wire server is bound, since clique identity is the bound address.
func (s *Server) startElection(addr string) {
	if len(s.cfg.Peers) == 0 {
		if s.cfg.Grouped {
			// The peer list arrives via JoinGroup once every group member
			// has bound; until then this controller is a mute follower.
			s.mu.Lock()
			s.isLeader = false
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		s.isLeader = true
		s.leaderID = s.id
		s.needAcquire = true
		s.mu.Unlock()
		s.metrics.Gauge("ctrl.leader").Set(1)
		return
	}
	s.joinGroup(addr, s.cfg.Peers)
}

// JoinGroup wires a controller started with Grouped (and no static peer
// list) into its replicated group. The harness binds every controller
// first, collects the addresses, then calls JoinGroup on each — the
// only ordering that works when addresses are allocated at bind time.
// No-op once a group is joined.
func (s *Server) JoinGroup(peers []string) {
	if len(peers) == 0 {
		return
	}
	s.mu.Lock()
	joined := s.clq != nil
	s.mu.Unlock()
	if joined {
		return
	}
	s.joinGroup(s.svc.Addr(), peers)
}

func (s *Server) joinGroup(addr string, peers []string) {
	ep := clique.NewEndpoint(s.svc.Server(), addr, s.client, s.cfg.CallTimeout)
	clq := clique.New(clique.Config{
		Peers:             peers,
		HeartbeatInterval: s.cfg.ElectionInterval,
		Metrics:           s.metrics,
		Tracer:            s.cfg.Tracer,
		OnChange:          s.onView,
	}, ep)
	// Until the first committed view says otherwise, a grouped controller
	// assumes it follows — it must win an election before acting.
	s.mu.Lock()
	s.clqEP = ep
	s.clq = clq
	s.isLeader = false
	s.leaderID = clique.LeaderID(peers)
	s.mu.Unlock()
	clq.Start()
}

// onView absorbs a committed controller-clique view change. Becoming
// leader (or surviving a view change while deposed) arms a fresh epoch
// acquisition; losing leadership drops the held epoch immediately.
func (s *Server) onView(v clique.View) {
	self := s.svc.Addr()
	s.mu.Lock()
	was := s.isLeader
	s.leaderID = v.Leader
	s.isLeader = v.Leader == self
	switch {
	case s.isLeader && (!was || s.fencedOut):
		// A fresh term, or the membership moved under a deposed leader:
		// claim a fresh epoch before acting again.
		s.needAcquire = true
		s.fencedOut = false
		s.epoch = 0
	case !s.isLeader:
		s.epoch = 0
		s.needAcquire = false
		s.fencedOut = false
	}
	leader := s.isLeader
	epoch := s.epoch
	s.mu.Unlock()
	if leader != was {
		s.metrics.Counter("ctrl.elections").Inc()
	}
	var lg int64
	if leader {
		lg = 1
	}
	s.metrics.Gauge("ctrl.leader").Set(lg)
	s.metrics.Gauge("ctrl.epoch").Set(int64(epoch))
	s.logf("view seq=%d leader=%s members=%d (self leader=%t)", v.Seq, v.Leader, len(v.Members), leader)
}

// leading reports whether this controller currently believes it may act
// (clique leader and not fenced out). The epoch fence has the final say.
func (s *Server) leading() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.isLeader && !s.fencedOut
}

// Role returns the controller's current group role.
func (s *Server) Role() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.fencedOut:
		return CtrlDeposed
	case s.isLeader:
		return CtrlLeader
	default:
		return CtrlFollower
	}
}

// Epoch returns the fencing epoch this controller holds (0 = none).
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ensureFenced makes sure this leader's actions will be accepted: a
// freshly elected leader claims a strictly higher epoch at quorum, an
// established one re-validates its claim. Any failure stands the
// controller down (fail-safe: no quorum means no actions). Without a
// durable store there is nothing to fence against — solo dev mode acts
// unfenced.
func (s *Server) ensureFenced() bool {
	if s.rs == nil {
		return true
	}
	s.mu.Lock()
	need := s.needAcquire || s.epoch == 0
	epoch := s.epoch
	s.mu.Unlock()
	if need {
		return s.acquireEpoch()
	}
	if !pstate.ValidateEpochQuorum(s.client, s.Roster(), EpochObjectName, epoch, s.id, s.cfg.CallTimeout) {
		s.depose()
		return false
	}
	return true
}

// acquireEpoch claims a strictly higher fencing epoch at quorum,
// retrying above whatever it observes. On success the new leader adopts
// the durable state its predecessor left (spec, roster, in-flight
// rollout marker), so a takeover resumes mid-flight work instead of
// restarting it.
func (s *Server) acquireEpoch() bool {
	roster := s.Roster()
	cur, answered := pstate.ReadEpochQuorum(s.client, roster, EpochObjectName, s.cfg.CallTimeout)
	if answered < len(roster)/2+1 {
		return false
	}
	try := cur.Epoch + 1
	for attempt := 0; attempt < 3; attempt++ {
		ok, best, err := pstate.AdvanceEpochQuorum(s.client, roster, EpochObjectName, try, s.id, s.cfg.CallTimeout)
		if err != nil {
			return false
		}
		if ok {
			s.mu.Lock()
			if !s.isLeader {
				// The election moved while the claim was in flight: a
				// controller that led a since-dissolved view must not adopt
				// the epoch it burned in the register — a follower holding
				// an epoch would silently fence out the real leader.
				s.mu.Unlock()
				s.metrics.Counter("ctrl.epoch.stale_claims").Inc()
				s.logf("discarding stale epoch claim %d (no longer leader)", try)
				return false
			}
			s.epoch = try
			s.needAcquire = false
			s.fencedOut = false
			s.mu.Unlock()
			s.metrics.Gauge("ctrl.epoch").Set(int64(try))
			s.metrics.Counter("ctrl.epoch.acquired").Inc()
			s.logf("acquired fencing epoch %d", try)
			s.adoptDurable()
			return true
		}
		if best.Epoch >= try {
			try = best.Epoch + 1
		} else {
			try++
		}
	}
	return false
}

// depose stands a fenced-out leader down: it stops acting until the
// controller clique commits a new view (which re-arms acquisition) or —
// grouped controllers only — maybeRearm retries after a token timeout.
func (s *Server) depose() {
	s.mu.Lock()
	s.fencedOut = true
	s.epoch = 0
	s.deposedAt = s.metrics.Now()
	s.mu.Unlock()
	s.metrics.Counter("ctrl.fence.rejected").Inc()
	s.metrics.Gauge("ctrl.epoch").Set(0)
	s.logf("epoch fence rejected: standing down")
}

// maybeRearm gives a deposed GROUPED leader another chance: when the
// committed view still names this controller leader a full token
// timeout after the fence rejected it, the rejection was epoch
// contention — typically a stale claim burned by the leader of a
// since-dissolved view during a membership shuffle — not a live rival,
// and without a retry the group would sit leaderless until the next
// view change (which a stable view never delivers). Solo controllers
// stay deposed forever: with no election to arbitrate, re-claiming
// would ping-pong the register between two split-brain halves — the
// exact outcome fencing exists to prevent.
func (s *Server) maybeRearm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clq == nil || !s.isLeader || !s.fencedOut {
		return
	}
	if s.metrics.Now().Sub(s.deposedAt) < 4*s.cfg.ElectionInterval {
		return
	}
	s.fencedOut = false
	s.needAcquire = true
	s.logf("still clique leader after fence rejection: re-arming epoch claim")
}

// adoptDurable re-reads the durable control-plane state — fleet spec,
// pstate roster, in-flight rollout marker — so a takeover acts on the
// predecessor's truth, not this replica's possibly stale view.
func (s *Server) adoptDurable() {
	if s.rs == nil {
		return
	}
	s.refreshSpec()
	s.adoptRoster()
	if o, ok, err := s.rs.Fetch(RolloutObjectName); err == nil && ok {
		if rolling, err := DecodeRollout(o.Data); err == nil {
			s.mu.Lock()
			s.rolling = rolling
			s.mu.Unlock()
		}
	}
}

// adoptRoster follows the persisted pstate roster (a previous leader may
// have promoted standbys since this controller last looked).
func (s *Server) adoptRoster() {
	o, ok, err := s.rs.Fetch(RosterObjectName)
	if err != nil || !ok {
		return
	}
	roster, err := DecodeRoster(o.Data)
	if err != nil || len(roster) == 0 {
		return
	}
	s.mu.Lock()
	changed := len(roster) != len(s.roster)
	if !changed {
		for i := range roster {
			if roster[i] != s.roster[i] {
				changed = true
				break
			}
		}
	}
	if changed {
		s.roster = roster
	}
	s.mu.Unlock()
	if changed {
		s.rs.SetAddrs(roster)
	}
}
