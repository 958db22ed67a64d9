// Package clique implements the NWS clique protocol used by the EveryWare
// Gossip pool: a token-passing protocol based on leader election that lets
// a clique of processes dynamically partition itself into subcliques (due
// to network or host failure) and then merge when conditions permit
// (section 2.3 of the paper).
//
// The protocol rides the lingua franca: an Endpoint (see endpoint.go)
// attaches to a wire.Server and sends through a wire.Client, so the
// substrate is whatever wire.Transport those were built on — real TCP
// daemons or a whole pool in one process over wire.MemTransport. The
// package used to define its own transport interface with a parallel
// in-memory fabric; that layer was folded into wire so partitions,
// faults, and in-process runs are injected once, beneath every protocol.
package clique

import (
	"errors"
	"sort"

	"everyware/internal/wire"
)

// ErrUnreachable is returned by Endpoint.Send when the destination cannot
// be contacted (host failure or network partition).
var ErrUnreachable = errors.New("clique: peer unreachable")

// Kind discriminates protocol messages.
type Kind uint8

// Protocol message kinds.
const (
	// KindToken carries the circulating membership token.
	KindToken Kind = iota + 1
	// KindViewUpdate announces a committed view to clique members.
	KindViewUpdate
	// KindProbe carries a leader's view to a potentially partitioned peer.
	KindProbe
	// KindProbeAck returns the contacted peer's view.
	KindProbeAck
)

// View is a committed clique configuration: a leader, a sorted member
// list, and a sequence number that totally orders configurations (ties
// broken by smaller leader ID).
type View struct {
	Seq     uint64
	Leader  string
	Members []string
}

// Clone returns a deep copy of v.
func (v View) Clone() View {
	m := make([]string, len(v.Members))
	copy(m, v.Members)
	return View{Seq: v.Seq, Leader: v.Leader, Members: m}
}

// Contains reports whether id is a member of v.
func (v View) Contains(id string) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Dominates reports whether v supersedes w in the configuration order.
func (v View) Dominates(w View) bool {
	if v.Seq != w.Seq {
		return v.Seq > w.Seq
	}
	return v.Leader < w.Leader
}

// Equal reports whether two views are identical.
func (v View) Equal(w View) bool {
	if v.Seq != w.Seq || v.Leader != w.Leader || len(v.Members) != len(w.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != w.Members[i] {
			return false
		}
	}
	return true
}

// Token is the circulating membership probe. The leader originates it; each
// live member appends itself to Visited and forwards it along the sorted
// ring; unreachable members are recorded in Failed; when the token returns
// to the origin the surviving membership is committed.
type Token struct {
	Origin  string
	Seq     uint64
	Members []string
	Visited []string
	Failed  []string
}

// Message is one clique protocol datagram.
type Message struct {
	Kind  Kind
	From  string
	View  View
	Token *Token
	// Trace is the causal trace context this message travels under. It is
	// never part of the encoded payload — the wire layer's trace envelope
	// carries it between daemons — so old peers interoperate unchanged.
	// The Endpoint fills it on receive and attaches it on Send, which
	// links every hop of a token circulation into the origin's trace.
	Trace wire.TraceContext
}

// sortedUnion returns the sorted union of two ID sets.
func sortedUnion(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// LeaderID returns the smallest ID in ids ("" if empty) — the clique
// leader-election rule. Exported so that the controller group elects by
// the same rule the clique protocol converges on.
func LeaderID(ids []string) string {
	if len(ids) == 0 {
		return ""
	}
	m := ids[0]
	for _, s := range ids[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// minID is the protocol-internal alias for LeaderID.
func minID(ids []string) string { return LeaderID(ids) }
