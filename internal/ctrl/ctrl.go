// Package ctrl is the EveryWare self-healing control plane: heartbeat
// membership with a phi-accrual failure detector, a desired-state
// reconcile loop over a durable fleet spec, and automatic persistent
// state standby promotion.
//
// The SC98 application's defining property was that it kept running
// while Grid resources came and went underneath it — survivability was
// not operator-driven. This package supplies that property to the
// reconstructed fleet: every daemon heartbeats into a membership table
// (gossip-published, telemetry-visible); a controller continuously
// diffs the declared fleet spec against observed liveness and acts —
// restarting dead daemons through a restart hook (with crash-loop
// back-off), rolling config changes one replica at a time behind
// health gates, and, when a persistent state replica dies, promoting a
// standby into the quorum, backfilling it through the anti-entropy
// path, and republishing the roster through Gossip so ReplicaSet
// clients re-discover the quorum without restart.
//
// The failure detector runs on an injectable clock, so the same
// liveness logic works in virtual time under the internal/simgrid
// discrete-event engine.
package ctrl

import (
	"fmt"
	"time"

	"everyware/internal/wire"
)

// Control-plane message types (range 120-129).
const (
	// MsgHeartbeat is a liveness attestation for one member (payload:
	// Member + sequence + sender clock; response: empty ack).
	MsgHeartbeat wire.MsgType = 120
	// MsgMembers returns the controller's membership table with per-member
	// liveness verdicts and phi values.
	MsgMembers wire.MsgType = 121
	// MsgStatus returns the controller's roster, spec version, and action
	// counters — the ew ctrl-watch viewer's poll target.
	MsgStatus wire.MsgType = 122
)

// Heartbeats are idempotent (a replayed beat only refreshes liveness)
// and the other two are reads, so all three ride the retry ladder.
func init() {
	wire.Define(MsgHeartbeat, "ctrl.heartbeat", true)
	wire.Define(MsgMembers, "ctrl.members", true)
	wire.Define(MsgStatus, "ctrl.status", true)
}

// PStateRosterKey is the Gossip key the controller publishes the active
// persistent state manager roster under (EncodeRoster). Republished on
// every promotion.
const PStateRosterKey = "everyware/pstates"

// Well-known roles daemons report in their heartbeats. Role strings are
// free-form — these are the ones the stock deployment uses; RolePState is
// the only one the controller itself interprets (for standby promotion).
const (
	RoleGossip    = "gossip"
	RoleSched     = "sched"
	RolePState    = "pstate"
	RoleLogSvc    = "logsvc"
	RoleComponent = "component"
	RoleCtrl      = "ctrl"
)

// Controller roles within the replicated controller group.
const (
	// CtrlLeader holds the fencing epoch and runs the reconcile actions.
	CtrlLeader = "leader"
	// CtrlFollower ingests heartbeats (warm detector state) but never acts.
	CtrlFollower = "follower"
	// CtrlDeposed believed it led but failed an epoch fence check; it
	// stands down until the controller clique elects it again.
	CtrlDeposed = "deposed"
)

// Member identifies one heartbeating daemon.
type Member struct {
	// ID is the fleet-unique member name (e.g. "sched1", "pstate2").
	ID string
	// Role classifies the daemon (RoleGossip, RoleSched, ...).
	Role string
	// Addr is the daemon's lingua franca listen address — where the
	// controller probes health and, for pstate members, the address that
	// enters the quorum roster on promotion.
	Addr string
	// ConfigVer is the configuration version the daemon is running; the
	// rollout loop advances members whose version trails the spec.
	ConfigVer uint64
	// Version is the software/config release the daemon is running (e.g.
	// "v2"); the rolling-upgrade loop advances members whose Version
	// differs from the spec's target, one at a time, so a mixed-version
	// fleet is a normal transient state.
	Version string
}

// Heartbeat is one liveness attestation.
type Heartbeat struct {
	Member
	// Seq increases per beat from one beater incarnation.
	Seq uint64
	// Unix is the sender's clock at send time (informational only — the
	// detector runs entirely on arrival times from its own clock).
	Unix int64
}

// MemberStatus is the controller's verdict on one member.
type MemberStatus struct {
	Member
	// Alive is the failure detector's current verdict.
	Alive bool
	// Phi is the current suspicion level (0 = just heard from).
	Phi float64
	// LastSeenUnixNanos is the arrival time of the newest heartbeat on
	// the controller's clock (0 = never heard from).
	LastSeenUnixNanos int64
	// Beats counts heartbeats received from this member.
	Beats uint64
}

// putMember appends a member's wire form.
func putMember(e *wire.Encoder, m Member) {
	e.PutString(m.ID)
	e.PutString(m.Role)
	e.PutString(m.Addr)
	e.PutUint64(m.ConfigVer)
	e.PutString(m.Version)
}

// getMember decodes a member.
func getMember(d *wire.Decoder) (Member, error) {
	var m Member
	var err error
	if m.ID, err = d.String(); err != nil {
		return m, err
	}
	if m.Role, err = d.String(); err != nil {
		return m, err
	}
	if m.Addr, err = d.String(); err != nil {
		return m, err
	}
	if m.ConfigVer, err = d.Uint64(); err != nil {
		return m, err
	}
	m.Version, err = d.String()
	return m, err
}

// EncodeWire implements wire.Message: the heartbeat encodes in place
// into a pooled request buffer.
func (hb Heartbeat) EncodeWire(e *wire.Encoder) {
	putMember(e, hb.Member)
	e.PutUint64(hb.Seq)
	e.PutInt64(hb.Unix)
}

// EncodeHeartbeat lays out a heartbeat payload.
func EncodeHeartbeat(hb Heartbeat) []byte {
	var e wire.Encoder
	hb.EncodeWire(&e)
	return e.Bytes()
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	d := wire.NewDecoder(p)
	var hb Heartbeat
	var err error
	if hb.Member, err = getMember(d); err != nil {
		return hb, err
	}
	if hb.Seq, err = d.Uint64(); err != nil {
		return hb, err
	}
	hb.Unix, err = d.Int64()
	return hb, err
}

// Membership is a membership table as a wire message (the MsgMembers
// response).
type Membership []MemberStatus

// EncodeWire implements wire.Message.
func (ms Membership) EncodeWire(e *wire.Encoder) {
	e.PutUint32(uint32(len(ms)))
	for _, m := range ms {
		putMember(e, m.Member)
		e.PutBool(m.Alive)
		e.PutFloat64(m.Phi)
		e.PutInt64(m.LastSeenUnixNanos)
		e.PutUint64(m.Beats)
	}
}

// DecodeMembership parses a membership table.
func DecodeMembership(p []byte) ([]MemberStatus, error) {
	d := wire.NewDecoder(p)
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	out := make([]MemberStatus, 0, n)
	for i := 0; i < n; i++ {
		var m MemberStatus
		if m.Member, err = getMember(d); err != nil {
			return nil, err
		}
		if m.Alive, err = d.Bool(); err != nil {
			return nil, err
		}
		if m.Phi, err = d.Float64(); err != nil {
			return nil, err
		}
		if m.LastSeenUnixNanos, err = d.Int64(); err != nil {
			return nil, err
		}
		if m.Beats, err = d.Uint64(); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// EncodeRoster lays out an address list: count then addresses. The
// pstate roster rides it, both over Gossip and in the replicated store.
func EncodeRoster(addrs []string) []byte {
	var e wire.Encoder
	e.PutUint32(uint32(len(addrs)))
	for _, a := range addrs {
		e.PutString(a)
	}
	return e.Bytes()
}

// DecodeRoster parses an address list. Every address costs at least its
// 4-byte length prefix, which bounds what a hostile count can allocate.
func DecodeRoster(p []byte) ([]string, error) {
	d := wire.NewDecoder(p)
	n, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		a, err := d.String()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Status is the controller's self-report (MsgStatus response).
type Status struct {
	// SpecVersion is the fleet spec version the controller is reconciling
	// toward (0 = none loaded).
	SpecVersion uint64
	// Roster is the active pstate quorum membership.
	Roster []string
	// Standbys are live pstate members currently outside the roster.
	Standbys []string
	// Live and Dead count members by current detector verdict.
	Live, Dead int64
	// Action counters since controller start.
	Restarts, Promotions, Rollouts, Backoffs int64
	// ControllerID identifies the answering controller.
	ControllerID string
	// Role is the controller's current role in the replicated group
	// (CtrlLeader, CtrlFollower, CtrlDeposed).
	Role string
	// LeaderID is the controller-clique leader this controller follows.
	LeaderID string
	// Epoch is the fencing epoch this controller holds (0 = none — only
	// an acting leader holds one).
	Epoch uint64
	// SpecEpoch is the fencing epoch under which the adopted fleet spec
	// was authored.
	SpecEpoch uint64
}

// EncodeWire implements wire.Message.
func (st Status) EncodeWire(e *wire.Encoder) {
	e.PutUint64(st.SpecVersion)
	e.PutUint32(uint32(len(st.Roster)))
	for _, a := range st.Roster {
		e.PutString(a)
	}
	e.PutUint32(uint32(len(st.Standbys)))
	for _, a := range st.Standbys {
		e.PutString(a)
	}
	e.PutInt64(st.Live)
	e.PutInt64(st.Dead)
	e.PutInt64(st.Restarts)
	e.PutInt64(st.Promotions)
	e.PutInt64(st.Rollouts)
	e.PutInt64(st.Backoffs)
	// HA fields ride at the end so a pre-HA decoder still parses the
	// prefix it knows about.
	e.PutString(st.ControllerID)
	e.PutString(st.Role)
	e.PutString(st.LeaderID)
	e.PutUint64(st.Epoch)
	e.PutUint64(st.SpecEpoch)
}

// EncodeStatus lays out a controller status report.
func EncodeStatus(st Status) []byte {
	var e wire.Encoder
	st.EncodeWire(&e)
	return e.Bytes()
}

// DecodeStatus parses a controller status report.
func DecodeStatus(p []byte) (Status, error) {
	d := wire.NewDecoder(p)
	var st Status
	var err error
	if st.SpecVersion, err = d.Uint64(); err != nil {
		return st, err
	}
	readList := func() ([]string, error) {
		n, err := d.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			a, err := d.String()
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}
	if st.Roster, err = readList(); err != nil {
		return st, err
	}
	if st.Standbys, err = readList(); err != nil {
		return st, err
	}
	for _, v := range []*int64{&st.Live, &st.Dead, &st.Restarts, &st.Promotions, &st.Rollouts, &st.Backoffs} {
		if *v, err = d.Int64(); err != nil {
			return st, err
		}
	}
	if d.Remaining() == 0 {
		return st, nil // pre-HA controller: no leadership fields
	}
	if st.ControllerID, err = d.String(); err != nil {
		return st, err
	}
	if st.Role, err = d.String(); err != nil {
		return st, err
	}
	if st.LeaderID, err = d.String(); err != nil {
		return st, err
	}
	if st.Epoch, err = d.Uint64(); err != nil {
		return st, err
	}
	if st.SpecEpoch, err = d.Uint64(); err != nil {
		return st, err
	}
	return st, nil
}

// FetchMembers polls a controller's membership table.
func FetchMembers(wc *wire.Client, addr string, timeout time.Duration) ([]MemberStatus, error) {
	resp, err := wc.Call(addr, wire.NewRequest(MsgMembers, nil), timeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return DecodeMembership(resp.Payload)
}

// FetchStatus polls a controller's status report.
func FetchStatus(wc *wire.Client, addr string, timeout time.Duration) (Status, error) {
	resp, err := wc.Call(addr, wire.NewRequest(MsgStatus, nil), timeout)
	if err != nil {
		return Status{}, err
	}
	defer resp.Release()
	return DecodeStatus(resp.Payload)
}

// SendHeartbeat delivers one heartbeat to a controller.
func SendHeartbeat(wc *wire.Client, addr string, hb Heartbeat, timeout time.Duration) error {
	if err := wc.CallMsg(addr, MsgHeartbeat, hb, nil, timeout); err != nil {
		return fmt.Errorf("ctrl: heartbeat to %s: %w", addr, err)
	}
	return nil
}
