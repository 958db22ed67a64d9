package ctrl

import (
	"strings"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/wire"
)

// Tick runs one reconcile round: refresh the desired-state spec, sweep
// the failure detector for liveness transitions, and — on the fenced
// leader only — heal the pstate quorum by standby promotion, restart
// dead daemons behind crash-loop back-off, advance rollouts one member
// at a time, autoscale, and publish membership and roster through
// Gossip. Followers sweep too (their detector state must stay warm for
// takeover) and track the durable roster, but never act. The background
// loop calls Tick every Interval; tests call it directly.
func (s *Server) Tick() {
	s.mu.Lock()
	s.tickN++
	n := s.tickN
	s.mu.Unlock()
	// The spec read is a quorum operation — refresh at most twice a
	// second so a fast reconcile tick does not hammer the store.
	every := uint64(1)
	if s.cfg.Interval > 0 && s.cfg.Interval < 500*time.Millisecond {
		every = uint64((500 * time.Millisecond) / s.cfg.Interval)
	}
	refresh := s.rs != nil && n%every == 0
	if refresh {
		s.refreshSpec()
		if !s.leading() {
			s.adoptRoster()
		}
	}
	s.sweep()
	s.maybeRearm()
	if s.leading() && s.ensureFenced() {
		s.promoteDeadReplicas()
		s.restartDead()
		s.rollout()
		if refresh {
			s.autoscale()
		}
		s.publish()
	}
	if !s.isRegistered() && s.agent != nil {
		s.register()
	}
}

func (s *Server) isRegistered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registered
}

// refreshSpec adopts a newer fleet spec from the replicated store.
func (s *Server) refreshSpec() {
	stored, found, err := LoadSpec(s.rs)
	if err != nil || !found {
		return
	}
	s.mu.Lock()
	if s.spec == nil || stored.Version > s.spec.Version {
		s.spec = stored
		s.logf("adopted fleet spec v%d", stored.Version)
	}
	s.mu.Unlock()
}

// sweep updates per-member liveness, records death/recovery transitions
// (and the recovery-time histogram ctrl.mttr), and forgives the restart
// history of members that have stayed up past CrashLoopReset.
func (s *Server) sweep() {
	now := s.metrics.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var live, dead int64
	for id := range s.members {
		alive := s.det.Alive(id)
		prev, had := s.alive[id]
		switch {
		case !had:
			s.alive[id] = alive
			if alive {
				s.aliveSince[id] = now
			} else {
				s.deadSince[id] = now
			}
		case prev && !alive:
			s.alive[id] = false
			s.deadSince[id] = now
			delete(s.aliveSince, id)
			s.metrics.Counter("ctrl.deaths").Inc()
			s.logf("member %s (%s at %s) declared dead", id, s.members[id].Role, s.members[id].Addr)
		case !prev && alive:
			s.alive[id] = true
			if t0, ok := s.deadSince[id]; ok {
				s.metrics.Histogram("ctrl.mttr").Observe(now.Sub(t0))
				delete(s.deadSince, id)
			}
			s.aliveSince[id] = now
			s.metrics.Counter("ctrl.recoveries").Inc()
			s.logf("member %s recovered", id)
		}
		if alive {
			live++
			if t0, ok := s.aliveSince[id]; ok && now.Sub(t0) > crashLoopReset {
				delete(s.restartN, id)
				delete(s.restartNext, id)
			}
		} else {
			dead++
		}
	}
	s.metrics.Gauge("ctrl.members.live").Set(live)
	s.metrics.Gauge("ctrl.members.dead").Set(dead)
}

// deadMembers snapshots members currently judged dead.
func (s *Server) deadMembers() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, 0)
	for id, m := range s.members {
		if !s.alive[id] {
			out = append(out, m)
		}
	}
	return out
}

// memberByAddr finds the member heartbeating from addr.
func (s *Server) memberByAddr(addr string) (Member, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m.Addr == addr {
			return m, true
		}
	}
	return Member{}, false
}

// promoteDeadReplicas heals the pstate quorum: for every roster address
// whose member is dead, promote a live standby (a pstate-role member
// outside the roster) in its place — push the new peer list to every
// live roster member, trigger an anti-entropy backfill on the promoted
// standby via the SyncNow entry point, persist the roster, and
// republish it through Gossip so ReplicaSet clients re-discover the
// quorum without restart.
func (s *Server) promoteDeadReplicas() {
	s.mu.Lock()
	roster := append([]string(nil), s.roster...)
	s.mu.Unlock()
	changed := false
	for i, addr := range roster {
		m, seen := s.memberByAddr(addr)
		if !seen {
			continue // never heartbeated: bootstrap grace, not a death
		}
		s.mu.Lock()
		dead := !s.alive[m.ID]
		deadAt, hadDeath := s.deadSince[m.ID]
		s.mu.Unlock()
		if !dead {
			continue
		}
		standby, ok := s.pickStandby(roster)
		if !ok {
			s.logf("replica %s dead, no live standby to promote", addr)
			continue
		}
		s.logf("promoting standby %s (%s) to replace dead replica %s", standby.ID, standby.Addr, addr)
		roster[i] = standby.Addr
		s.installRoster(roster, standby)
		s.metrics.Counter("ctrl.promotions").Inc()
		if hadDeath {
			s.metrics.Histogram("ctrl.mttr.promote").Observe(s.metrics.Now().Sub(deadAt))
		}
		changed = true
	}
	if changed {
		s.publish()
	}
}

// pickStandby selects the first live pstate member outside the roster
// (lowest ID, for determinism).
func (s *Server) pickStandby(roster []string) (Member, bool) {
	inRoster := make(map[string]bool, len(roster))
	for _, a := range roster {
		inRoster[a] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var best Member
	found := false
	for id, m := range s.members {
		if m.Role != RolePState || inRoster[m.Addr] || !s.alive[id] {
			continue
		}
		if !found || m.ID < best.ID {
			best, found = m, true
		}
	}
	return best, found
}

// installRoster makes newRoster the active quorum: every live member of
// the new roster learns its sibling list over the wire, the promoted
// standby backfills via one forced anti-entropy round, the controller's
// own replica client follows the roster, and the roster is persisted.
func (s *Server) installRoster(newRoster []string, promoted Member) {
	for _, a := range newRoster {
		peers := make([]string, 0, len(newRoster)-1)
		for _, p := range newRoster {
			if p != a {
				peers = append(peers, p)
			}
		}
		if err := pstate.SetPeersAt(s.client, a, peers, s.cfg.CallTimeout); err != nil {
			s.logf("set peers on %s: %v", a, err)
		}
	}
	if n, err := pstate.SyncNowAt(s.client, promoted.Addr, 4*s.cfg.CallTimeout); err != nil {
		s.logf("backfill sync on %s: %v", promoted.Addr, err)
	} else {
		s.logf("backfill on %s transferred %d records", promoted.Addr, n)
	}
	s.mu.Lock()
	s.roster = append([]string(nil), newRoster...)
	s.mu.Unlock()
	if s.rs != nil {
		s.rs.SetAddrs(newRoster)
		if _, err := s.rs.Store(RosterObjectName, RosterClass, EncodeRoster(newRoster)); err != nil && err != pstate.ErrSpooled {
			s.logf("roster persist: %v", err)
		}
	}
}

// restartDead invokes the restart hook for every dead member, spacing
// consecutive attempts on the same member exponentially (crash-loop
// back-off). A member that answers a ping is skipped — it is already
// back and the detector just hasn't seen a heartbeat yet.
func (s *Server) restartDead() {
	if s.cfg.Restart == nil {
		return
	}
	now := s.metrics.Now()
	for _, m := range s.deadMembers() {
		s.mu.Lock()
		next, deferred := s.restartNext[m.ID]
		s.mu.Unlock()
		if deferred && now.Before(next) {
			continue
		}
		if m.Addr != "" {
			if resp, err := s.client.Call(m.Addr, wire.NewRequest(wire.MsgPing, nil), s.cfg.CallTimeout); err == nil {
				resp.Release()
				continue // answering: let the next heartbeat revive it
			}
		}
		s.mu.Lock()
		n := s.restartN[m.ID]
		delay := backoffBase << uint(n)
		if delay > backoffMax || delay <= 0 {
			delay = backoffMax
		}
		s.restartN[m.ID] = n + 1
		s.restartNext[m.ID] = now.Add(delay)
		s.mu.Unlock()
		if n > 0 {
			s.metrics.Counter("ctrl.backoffs").Inc()
		}
		s.logf("restarting dead member %s (attempt %d, next in %v)", m.ID, n+1, delay)
		if err := s.cfg.Restart(m); err != nil {
			s.metrics.Counter("ctrl.restart.errors").Inc()
			s.logf("restart %s: %v", m.ID, err)
			continue
		}
		s.metrics.Counter("ctrl.restarts").Inc()
	}
}

// staleFor reports whether member m trails the role spec — an older
// config version, or (for rolling upgrades) a different release version.
func staleFor(m Member, svc ServiceSpec) bool {
	if svc.ConfigVer > 0 && m.ConfigVer < svc.ConfigVer {
		return true
	}
	if svc.Version != "" && m.Version != svc.Version {
		return true
	}
	return false
}

// rollout advances config and release versions one member per role at a
// time: the next stale live member is handed the new spec via the
// ApplyConfig hook, and the next candidate is not touched until the
// previous one reports the new versions, is judged alive, and passes
// the health gate (answers pings with an acceptable served-error rate).
// Members on the old version keep serving throughout — a mixed-version
// fleet is the rollout's normal operating state, not an error. The
// in-flight marker is persisted, so a leader elected mid-rollout
// resumes exactly where its predecessor stopped.
func (s *Server) rollout() {
	if s.cfg.ApplyConfig == nil {
		return
	}
	s.mu.Lock()
	spec := s.spec
	s.mu.Unlock()
	if spec == nil {
		return
	}
	for _, svc := range spec.Services {
		if svc.ConfigVer == 0 && svc.Version == "" {
			continue
		}
		s.mu.Lock()
		inflight := s.rolling[svc.Role]
		var cur Member
		var curAlive, have bool
		if inflight != "" {
			cur, have = s.members[inflight]
			curAlive = s.alive[inflight]
		}
		s.mu.Unlock()
		if inflight != "" {
			if !have || staleFor(cur, svc) || !curAlive || !s.healthGate(cur) {
				continue // previous member still converging: hold the rollout
			}
			s.setRolling(svc.Role, "")
		}
		next, ok := s.nextStale(svc)
		if !ok {
			continue
		}
		s.logf("rolling %s %s to config v%d version %q", svc.Role, next.ID, svc.ConfigVer, svc.Version)
		if err := s.cfg.ApplyConfig(next, svc); err != nil {
			s.metrics.Counter("ctrl.rollout.errors").Inc()
			s.logf("rollout %s: %v", next.ID, err)
			continue
		}
		s.setRolling(svc.Role, next.ID)
		s.metrics.Counter("ctrl.rollouts").Inc()
	}
}

// setRolling updates the in-flight rollout marker for a role ("" clears
// it) and persists the marker, so the rollout position survives the
// leader that was driving it.
func (s *Server) setRolling(role, id string) {
	s.mu.Lock()
	if id == "" {
		delete(s.rolling, role)
	} else {
		s.rolling[role] = id
	}
	cp := make(map[string]string, len(s.rolling))
	for k, v := range s.rolling {
		cp[k] = v
	}
	s.mu.Unlock()
	if s.rs != nil {
		if _, err := s.rs.Store(RolloutObjectName, RolloutClass, EncodeRollout(cp)); err != nil && err != pstate.ErrSpooled {
			s.logf("rollout marker persist: %v", err)
		}
	}
}

// nextStale picks the lowest-ID live member of the role trailing the
// spec's config or release version.
func (s *Server) nextStale(svc ServiceSpec) (Member, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best Member
	found := false
	for id, m := range s.members {
		if m.Role != svc.Role || !s.alive[id] || !staleFor(m, svc) {
			continue
		}
		if !found || m.ID < best.ID {
			best, found = m, true
		}
	}
	return best, found
}

// healthGate checks a member end to end: it must answer a ping and its
// served-error fraction (from its telemetry snapshot) must not exceed
// maxErrorRate. A member without telemetry passes on the ping alone.
func (s *Server) healthGate(m Member) bool {
	if m.Addr == "" {
		return true
	}
	resp, err := s.client.Call(m.Addr, wire.NewRequest(wire.MsgPing, nil), s.cfg.CallTimeout)
	if err != nil {
		return false
	}
	resp.Release()
	snap, err := wire.FetchSnapshot(s.client, m.Addr, "wire.server.handle.", s.cfg.CallTimeout)
	if err != nil {
		return true
	}
	var total, errs int64
	for _, sm := range snap.Samples {
		if sm.Hist == nil || !strings.HasPrefix(sm.Name, "wire.server.handle.") {
			continue
		}
		total += sm.Hist.Count
		if !strings.HasSuffix(sm.Name, ".ok") {
			errs += sm.Hist.Count
		}
	}
	if total == 0 {
		return true
	}
	return float64(errs)/float64(total) <= maxErrorRate
}

// publish pushes the pstate roster through Gossip when changed.
func (s *Server) publish() {
	if s.agent == nil {
		return
	}
	s.mu.Lock()
	roster := append([]string(nil), s.roster...)
	key := strings.Join(roster, ";")
	changed := key != s.lastRoster
	s.lastRoster = key
	s.mu.Unlock()
	if changed {
		s.agent.Set(PStateRosterKey, EncodeRoster(roster))
	}
}
