package pstate

import (
	"fmt"
	"time"

	"everyware/internal/wire"
)

// The epoch register is the control plane's fencing primitive: a named
// monotonic counter with a holder, replicated like any other object. A
// leader-elect advances the register to a strictly higher epoch at a
// quorum before acting; a deposed leader's validation then fails (some
// replica reports a higher epoch or a different holder) and its actions
// stop at the register instead of racing the new leader.
//
// The register is stored as an ordinary Object whose Version IS the
// epoch and whose Data is the holder ID, so it inherits the replication
// plane wholesale: Supersedes gives strict monotonicity (a lower or
// equal epoch never overwrites a higher one; an equal-epoch conflict
// between two holders resolves deterministically by the payload-CRC
// tie-break), persist gives crash durability, and anti-entropy
// propagates the winning epoch to replicas that missed the write.
const (
	// MsgEpochAdvance proposes holder owning epoch on one replica
	// (payload: name, epoch, holder; response: applied, current epoch,
	// current holder). Applied only if epoch supersedes the replica's
	// current register value.
	MsgEpochAdvance wire.MsgType = 45
	// MsgEpochGet reads one replica's register (payload: name; response:
	// current epoch — 0 if never advanced — and current holder).
	MsgEpochGet wire.MsgType = 46
)

// EpochClass is the object class epoch registers are stored under.
const EpochClass = "pstate/epoch"

// An advance carries its epoch, so retransmitting it is a no-op on a
// replica that already applied it; get is a read.
func init() {
	wire.Define(MsgEpochAdvance, "pstate.epoch_advance", true)
	wire.Define(MsgEpochGet, "pstate.epoch_get", true)
}

// EpochState is one replica's view of a named epoch register.
type EpochState struct {
	// Epoch is the register value (0 = never advanced).
	Epoch uint64
	// Holder identifies who advanced the register to Epoch.
	Holder string
}

// EpochAdvance applies the proposal iff it supersedes the current
// register value, and returns whether it applied plus the state now
// current at this replica (which is the proposal itself on success).
func (s *Server) EpochAdvance(name string, epoch uint64, holder string) (bool, EpochState, error) {
	if epoch == 0 {
		return false, EpochState{}, fmt.Errorf("pstate: epoch advance needs a non-zero epoch")
	}
	o := &Object{Name: name, Class: EpochClass, Version: epoch, Data: []byte(holder)}
	applied, _, err := s.StoreAt(o)
	if err != nil {
		return false, EpochState{}, err
	}
	if applied {
		s.metrics.Counter("pstate.epoch.advance").Inc()
	} else {
		s.metrics.Counter("pstate.epoch.rejected").Inc()
	}
	return applied, s.EpochGet(name), nil
}

// EpochGet reads the register at this replica.
func (s *Server) EpochGet(name string) EpochState {
	o := s.Pull(name)
	if o == nil || o.Tombstone {
		return EpochState{}
	}
	return EpochState{Epoch: o.Version, Holder: string(o.Data)}
}

func (s *Server) handleEpochAdvance(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	name, err := d.String()
	if err != nil {
		return nil, err
	}
	epoch, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	holder, err := d.String()
	if err != nil {
		return nil, err
	}
	applied, cur, err := s.EpochAdvance(name, epoch, holder)
	if err != nil {
		return nil, err
	}
	return wire.Reply(MsgEpochAdvance, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutBool(applied)
		e.PutUint64(cur.Epoch)
		e.PutString(cur.Holder)
	})), nil
}

func (s *Server) handleEpochGet(_ string, req *wire.Packet) (*wire.Packet, error) {
	name, err := wire.NewDecoder(req.Payload).String()
	if err != nil {
		return nil, err
	}
	cur := s.EpochGet(name)
	return wire.Reply(MsgEpochGet, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint64(cur.Epoch)
		e.PutString(cur.Holder)
	})), nil
}

// newEpochAdvanceReq builds a pooled MsgEpochAdvance request.
func newEpochAdvanceReq(name string, epoch uint64, holder string) *wire.Packet {
	return wire.NewRequest(MsgEpochAdvance, wire.MessageFunc(func(e *wire.Encoder) {
		e.Grow(16 + len(name) + len(holder))
		e.PutString(name)
		e.PutUint64(epoch)
		e.PutString(holder)
	}))
}

// newEpochGetReq builds a pooled MsgEpochGet request.
func newEpochGetReq(name string) *wire.Packet {
	return wire.NewRequest(MsgEpochGet, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutString(name)
	}))
}

// decodeEpochAdvance decodes a MsgEpochAdvance reply.
func decodeEpochAdvance(resp *wire.Packet) (bool, EpochState, error) {
	d := wire.NewDecoder(resp.Payload)
	applied, err := d.Bool()
	if err != nil {
		return false, EpochState{}, err
	}
	cur, err := decodeEpochState(d)
	return applied, cur, err
}

func decodeEpochState(d *wire.Decoder) (EpochState, error) {
	var st EpochState
	var err error
	if st.Epoch, err = d.Uint64(); err != nil {
		return st, err
	}
	st.Holder, err = d.String()
	return st, err
}

// quorum is the majority threshold for n replicas.
func quorum(n int) int { return n/2 + 1 }

// ReadEpochQuorum reads the register across replicas and returns the
// highest state seen plus how many replicas answered. A caller that
// needs quorum semantics checks answered >= majority itself.
func ReadEpochQuorum(wc *wire.Client, addrs []string, name string, timeout time.Duration) (EpochState, int) {
	var best EpochState
	answered := 0
	calls := make([]*wire.PendingCall, len(addrs))
	for i, a := range addrs {
		calls[i] = wc.Go(a, newEpochGetReq(name), timeout)
	}
	for _, pc := range calls {
		resp, err := pc.Wait()
		if err != nil {
			continue
		}
		st, derr := decodeEpochState(wire.NewDecoder(resp.Payload))
		resp.Release()
		if derr != nil {
			continue
		}
		answered++
		if st.Epoch > best.Epoch {
			best = st
		}
	}
	return best, answered
}

// AdvanceEpochQuorum proposes holder owning epoch at every replica and
// succeeds when a majority ends up at exactly that (epoch, holder) —
// whether this call applied it or a retransmitted earlier one already
// had. On failure the highest state observed is returned so the caller
// can retry above it.
func AdvanceEpochQuorum(wc *wire.Client, addrs []string, name string, epoch uint64, holder string, timeout time.Duration) (bool, EpochState, error) {
	if len(addrs) == 0 {
		return false, EpochState{}, fmt.Errorf("pstate: epoch advance needs replicas")
	}
	var best EpochState
	match := 0
	calls := make([]*wire.PendingCall, len(addrs))
	for i, a := range addrs {
		calls[i] = wc.Go(a, newEpochAdvanceReq(name, epoch, holder), timeout)
	}
	for _, pc := range calls {
		resp, err := pc.Wait()
		if err != nil {
			continue
		}
		_, cur, derr := decodeEpochAdvance(resp)
		resp.Release()
		if derr != nil {
			continue
		}
		if cur.Epoch == epoch && cur.Holder == holder {
			match++
		}
		if cur.Epoch > best.Epoch {
			best = cur
		}
	}
	return match >= quorum(len(addrs)), best, nil
}

// ValidateEpochQuorum re-reads the register and reports whether a
// majority still shows exactly (epoch, holder). Fail-safe: replicas
// that cannot be reached or report anything else count against the
// holder, so a leader partitioned from the quorum (or superseded by a
// higher epoch anywhere in the majority) is told to stand down.
func ValidateEpochQuorum(wc *wire.Client, addrs []string, name string, epoch uint64, holder string, timeout time.Duration) bool {
	if len(addrs) == 0 {
		return false
	}
	match := 0
	calls := make([]*wire.PendingCall, len(addrs))
	for i, a := range addrs {
		calls[i] = wc.Go(a, newEpochGetReq(name), timeout)
	}
	for _, pc := range calls {
		resp, err := pc.Wait()
		if err != nil {
			continue
		}
		st, derr := decodeEpochState(wire.NewDecoder(resp.Payload))
		resp.Release()
		if derr != nil {
			continue
		}
		if st.Epoch == epoch && st.Holder == holder {
			match++
		}
	}
	return match >= quorum(len(addrs))
}
