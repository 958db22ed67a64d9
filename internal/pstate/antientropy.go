package pstate

import (
	"fmt"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Anti-entropy: every persistent state manager periodically exchanges
// per-key digests (name → version, payload CRC, tombstone) with its
// sibling replicas and transfers only the records where the digests
// disagree — pulling entries a peer holds newer, pushing entries this
// replica holds newer. Tombstones travel the same channel, so deletions
// converge instead of being resurrected by a replica that missed them.
// The timer is jittered so a replica fleet spreads its repair traffic
// instead of thundering in lockstep.

// supersedes orders digest entries exactly like Object.Supersedes, so the
// sync loop can decide transfer direction from digests alone.
func (e DigestEntry) supersedes(cur DigestEntry) bool {
	if e.Version != cur.Version {
		return e.Version > cur.Version
	}
	if e.Tombstone != cur.Tombstone {
		return e.Tombstone
	}
	return e.CRC > cur.CRC
}

// syncLoop drives anti-entropy rounds until Close.
func (s *Server) syncLoop() {
	defer s.syncWG.Done()
	for {
		base := s.cfg.SyncInterval
		s.rngMu.Lock()
		jitter := time.Duration(s.rng.Int63n(int64(base)))
		s.rngMu.Unlock()
		select {
		case <-s.syncStop:
			return
		case <-time.After(base/2 + jitter):
		}
		s.SyncNow()
	}
}

// SyncNow runs one anti-entropy round against every configured peer and
// returns the number of records transferred (pulls + pushes). Tests and
// operators call it to force convergence without waiting on the timer.
func (s *Server) SyncNow() (int, error) {
	peers := s.Peers()
	if len(peers) == 0 {
		return 0, nil
	}
	s.metrics.Counter("pstate.antientropy.rounds").Inc()
	// Each round roots its own trace: the digest exchange and every
	// pull/push repair against every peer land in one tree.
	root := wire.StartOp(nil, s.cfg.Tracer, "pstate.antientropy", wire.TraceContext{})
	tc := root.Context()
	timeout := 2 * time.Second
	repairs := 0
	var maxLag int64
	var lastErr error
	for _, peer := range peers {
		remote, err := fetchDigest(s.peerWC, peer, tc, timeout)
		if err != nil {
			s.metrics.Counter("pstate.antientropy.errors").Inc()
			lastErr = fmt.Errorf("pstate: digest from %s: %w", peer, err)
			continue
		}
		local := make(map[string]DigestEntry)
		for _, ent := range s.Digest() {
			local[ent.Name] = ent
		}
		// Pull records the peer holds newer (or that we lack entirely). All
		// pulls for this peer are issued as one pipelined batch on its
		// connection, then collected — divergence repair is bounded by one
		// round trip plus transfer time, not a round trip per record.
		var pulls []*wire.PendingCall
		for _, rent := range remote {
			lent, have := local[rent.Name]
			if have && !rent.supersedes(lent) {
				continue
			}
			if have && rent.Version > lent.Version {
				if lag := int64(rent.Version - lent.Version); lag > maxLag {
					maxLag = lag
				}
			} else if !have {
				if int64(rent.Version) > maxLag {
					maxLag = int64(rent.Version)
				}
			}
			pulls = append(pulls, goPull(s.peerWC, peer, rent.Name, tc, timeout))
		}
		for _, pc := range pulls {
			resp, err := pc.Wait()
			if err != nil {
				s.metrics.Counter("pstate.antientropy.errors").Inc()
				lastErr = err
				continue
			}
			o, found, derr := decodePull(resp)
			resp.Release()
			if derr != nil {
				s.metrics.Counter("pstate.antientropy.errors").Inc()
				lastErr = derr
				continue
			}
			if !found {
				continue
			}
			if applied, _, err := s.StoreAt(o); err != nil {
				s.metrics.Counter("pstate.antientropy.errors").Inc()
				lastErr = err
			} else if applied {
				repairs++
				s.metrics.Counter("pstate.antientropy.pulled").Inc()
				s.cfg.Logf("pstate: anti-entropy pulled %q v%d from %s", o.Name, o.Version, peer)
			}
		}
		// Push records we hold newer (or the peer lacks entirely), likewise
		// one pipelined batch per peer.
		type push struct {
			o  *Object
			pc *wire.PendingCall
		}
		var pushes []push
		for lname, lent := range local {
			rent, have := findDigest(remote, lname)
			if have && !lent.supersedes(rent) {
				continue
			}
			o := s.Pull(lname)
			if o == nil {
				continue
			}
			pushes = append(pushes, push{o, goStoreAt(s.peerWC, peer, o, tc, timeout)})
		}
		for _, ps := range pushes {
			resp, err := ps.pc.Wait()
			if err != nil {
				s.metrics.Counter("pstate.antientropy.errors").Inc()
				lastErr = err
				continue
			}
			applied, _, derr := decodeStoreAt(resp)
			resp.Release()
			if derr != nil {
				s.metrics.Counter("pstate.antientropy.errors").Inc()
				lastErr = derr
				continue
			}
			if applied {
				repairs++
				s.metrics.Counter("pstate.antientropy.pushed").Inc()
				s.cfg.Logf("pstate: anti-entropy pushed %q v%d to %s", ps.o.Name, ps.o.Version, peer)
			}
		}
	}
	s.metrics.Counter("pstate.antientropy.repairs").Add(int64(repairs))
	s.metrics.Gauge("pstate.replica.lag").Set(maxLag)
	root.Annotate("repairs", fmt.Sprintf("%d", repairs))
	if lastErr != nil {
		root.End(telemetry.OutcomeError)
	} else {
		root.End(telemetry.OutcomeOK)
	}
	return repairs, lastErr
}

// findDigest locates name in a sorted digest slice.
func findDigest(dig []DigestEntry, name string) (DigestEntry, bool) {
	lo, hi := 0, len(dig)
	for lo < hi {
		mid := (lo + hi) / 2
		if dig[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(dig) && dig[lo].Name == name {
		return dig[lo], true
	}
	return DigestEntry{}, false
}
