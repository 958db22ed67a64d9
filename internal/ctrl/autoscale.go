package ctrl

import (
	"math"
	"sort"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/pstate"
	"everyware/internal/wire"
)

// The autoscaler sizes roles from predicted load instead of a static
// count. Each decision round the leader reads a load signal per
// autoscaled role (scheduler queue depth plus admission-shed rate by
// default), feeds it to the NWS forecasting battery, and converts the
// prediction into a desired replica count within the role's [Min, Max]
// bounds. Two safety properties bound the blast radius: hysteresis (a
// count only moves after UpStreak/DownStreak consecutive decisions
// agree, with shrinking demanding a much longer streak than growing)
// and one-change-at-a-time (at most one role's count moves per decision
// round, and at most one daemon is started or retired per reconcile
// tick, each behind a per-role cooldown).

// autoscale runs one decision round (leader-only, fenced by the
// caller): adjust spec counts from forecast-predicted load, then
// actuate the difference between desired and observed replica counts.
func (s *Server) autoscale() {
	s.mu.Lock()
	spec := s.spec
	s.mu.Unlock()
	if spec == nil {
		return
	}
	s.decideCounts(spec)
	s.reconcileCounts()
}

// decideCounts moves at most one role's Count toward its forecast-driven
// desired value, bumping and persisting the spec when it does.
func (s *Server) decideCounts(spec *FleetSpec) {
	if s.cfg.Load == nil && s.cfg.ScaleUp == nil && s.cfg.ScaleDown == nil {
		return
	}
	changed := -1
	step := 0
	for i := range spec.Services {
		svc := &spec.Services[i]
		if svc.Max <= 0 {
			continue // not autoscaled
		}
		load, ok := s.loadOf(svc.Role)
		if !ok {
			continue
		}
		key := forecast.Key{Resource: "ctrl/" + svc.Role, Event: "load"}
		s.fc.Record(key, load)
		pred := load
		if f, ok := s.fc.Forecast(key); ok {
			pred = f.Value
		}
		if s.cfg.AlertFiring != nil {
			// Observatory boost: every firing alert on this role claims
			// one replica's worth of headroom on top of the forecast.
			if n := s.cfg.AlertFiring(svc.Role); n > 0 {
				pred += float64(n) * s.cfg.TargetLoad
				s.metrics.Gauge("ctrl.scale.alertboost." + svc.Role).Set(int64(n))
			} else {
				s.metrics.Gauge("ctrl.scale.alertboost." + svc.Role).Set(0)
			}
		}
		desired := int(math.Ceil(pred / s.cfg.TargetLoad))
		if desired < svc.Min {
			desired = svc.Min
		}
		if desired < 1 {
			desired = 1
		}
		if desired > svc.Max {
			desired = svc.Max
		}
		s.metrics.Gauge("ctrl.scale.desired." + svc.Role).Set(int64(desired))
		switch {
		case desired > svc.Count:
			s.upN[svc.Role]++
			s.downN[svc.Role] = 0
			if changed < 0 && s.upN[svc.Role] >= s.cfg.UpStreak {
				changed, step = i, 1
			}
		case desired < svc.Count:
			s.downN[svc.Role]++
			s.upN[svc.Role] = 0
			if changed < 0 && s.downN[svc.Role] >= s.cfg.DownStreak {
				changed, step = i, -1
			}
		default:
			s.upN[svc.Role] = 0
			s.downN[svc.Role] = 0
		}
	}
	if changed < 0 {
		return
	}
	// One count change per round, fleet-wide: clone the spec, move the
	// chosen role by exactly one, bump the version, and persist under the
	// current fencing epoch.
	cp := *spec
	cp.Services = append([]ServiceSpec(nil), spec.Services...)
	cp.Services[changed].Count += step
	cp.Version++
	cp.Epoch = s.Epoch()
	role := cp.Services[changed].Role
	s.upN[role] = 0
	s.downN[role] = 0
	if step > 0 {
		s.metrics.Counter("ctrl.scale.up").Inc()
	} else {
		s.metrics.Counter("ctrl.scale.down").Inc()
	}
	s.logf("autoscale: %s count %d -> %d (spec v%d)", role, spec.Services[changed].Count, cp.Services[changed].Count, cp.Version)
	s.mu.Lock()
	s.spec = &cp
	s.mu.Unlock()
	if s.rs != nil {
		if err := StoreSpec(s.rs, &cp); err != nil && err != pstate.ErrSpooled {
			s.logf("autoscale spec store: %v", err)
		}
	}
}

// reconcileCounts actuates the spec: when a role has fewer live members
// than Count, start one; when more, retire the newest. At most one
// actuation per tick, each behind a per-role cooldown long enough for
// the previous action to show up in the membership table.
func (s *Server) reconcileCounts() {
	s.mu.Lock()
	spec := s.spec
	s.mu.Unlock()
	if spec == nil {
		return
	}
	now := s.metrics.Now()
	for _, svc := range spec.Services {
		if svc.Max <= 0 {
			continue
		}
		s.mu.Lock()
		wait, cooling := s.scaleWait[svc.Role]
		s.mu.Unlock()
		if cooling && now.Before(wait) {
			continue
		}
		live := s.liveMembersOf(svc.Role)
		switch {
		case len(live) < svc.Count && s.cfg.ScaleUp != nil:
			s.logf("autoscale: starting one %s (%d live < %d desired)", svc.Role, len(live), svc.Count)
			if err := s.cfg.ScaleUp(svc.Role); err != nil {
				s.metrics.Counter("ctrl.scale.errors").Inc()
				s.logf("scale up %s: %v", svc.Role, err)
				return
			}
			s.metrics.Counter("ctrl.scale.starts").Inc()
			s.setScaleWait(svc.Role, now)
			return // one actuation per tick
		case len(live) > svc.Count && s.cfg.ScaleDown != nil:
			victim := live[len(live)-1]
			s.logf("autoscale: retiring %s (%d live > %d desired)", victim.ID, len(live), svc.Count)
			if err := s.cfg.ScaleDown(victim); err != nil {
				s.metrics.Counter("ctrl.scale.errors").Inc()
				s.logf("scale down %s: %v", victim.ID, err)
				return
			}
			s.metrics.Counter("ctrl.scale.stops").Inc()
			s.forget(victim.ID)
			s.setScaleWait(svc.Role, now)
			return
		}
	}
}

// setScaleWait arms the per-role actuation cooldown.
func (s *Server) setScaleWait(role string, now time.Time) {
	s.mu.Lock()
	s.scaleWait[role] = now.Add(s.cfg.ScaleCooldown)
	s.mu.Unlock()
}

// liveMembersOf snapshots the live members of a role, sorted by ID (so
// the retirement victim — the last — is the newest-numbered member).
func (s *Server) liveMembersOf(role string) []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, 0)
	for id, m := range s.members {
		if m.Role == role && s.alive[id] {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// forget drops a deliberately retired member from all tracking — it was
// scaled away, not lost, so the detector must not mourn it and the
// restart loop must not resurrect it.
func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.members, id)
	delete(s.alive, id)
	delete(s.deadSince, id)
	delete(s.aliveSince, id)
	delete(s.restartN, id)
	delete(s.restartNext, id)
	s.mu.Unlock()
	s.det.Forget(id)
}

// loadOf returns the autoscale load signal for a role. An installed
// Load hook decides directly; otherwise the controller polls each live
// member's telemetry for the scheduler queue depth gauge plus the
// admission controller's shed-counter delta since the last poll — the
// two signals that rise when the fleet is undersized.
func (s *Server) loadOf(role string) (float64, bool) {
	if s.cfg.Load != nil {
		return s.cfg.Load(role)
	}
	members := s.liveMembersOf(role)
	load := 0.0
	seen := false
	for _, m := range members {
		if m.Addr == "" {
			continue
		}
		snap, err := wire.FetchSnapshot(s.client, m.Addr, "sched.queue.", s.cfg.CallTimeout)
		if err != nil {
			continue
		}
		load += float64(snap.Value("sched.queue.depth"))
		seen = true
		shedSnap, err := wire.FetchSnapshot(s.client, m.Addr, "scale.shed.", s.cfg.CallTimeout)
		if err != nil {
			continue
		}
		shed := float64(shedSnap.Value("scale.shed.total"))
		s.mu.Lock()
		last := s.lastShed[m.ID]
		s.lastShed[m.ID] = shed
		s.mu.Unlock()
		if shed > last {
			load += shed - last
		}
	}
	return load, seen
}
