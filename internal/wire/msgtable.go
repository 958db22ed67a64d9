package wire

import (
	"fmt"
	"sort"
)

// The message table is the one place that says what this system speaks on
// the wire: every live message type is declared once, by the package that
// owns it, with Define; every retired number is declared once with
// Reserve and never reused. Names, the idempotent set, the collision check
// and Server.Register's gate are all derived from it.
//
// The table is written only from package init (Go runs those on one
// goroutine before main or any test), so reads take no lock.

// MessageInfo is one row of the message table.
type MessageInfo struct {
	Type MsgType
	// Name is "pkg.verb" for a live message — the label span names and
	// ew-trace print — and "was pkg.verb" for a reserved one.
	Name string
	// Idempotent marks a type safe to retransmit when a response was
	// never observed: re-executing the request yields the same remote
	// state (reads, pings, registrations, level-triggered state pushes).
	// Side-effecting types — a log append, a job submission — stay false
	// so the retry machinery never blindly duplicates them and the caller
	// gets an AmbiguousError to decide on.
	Idempotent bool
	// Reserved marks a retired number: no handler may be registered for
	// it, so an old peer that still sends it gets the definitive
	// "no handler for message type" reply.
	Reserved bool
}

var msgTable = map[MsgType]MessageInfo{}

func init() {
	Define(MsgError, "wire.error", false)
	Define(MsgPing, "wire.ping", true)
	Define(MsgPong, "wire.pong", true)
	Define(MsgTelemetry, "wire.telemetry", true) // a pure read
}

// Define declares live message type t under name. Call it once per
// message from the owning package's init. It panics on a number or name
// already in the table, reserved numbers included.
func Define(t MsgType, name string, idempotent bool) {
	addMessage(MessageInfo{Type: t, Name: name, Idempotent: idempotent})
}

// Reserve declares t retired: the number stays in the table so it can
// never be defined again. was names what it used to carry.
func Reserve(t MsgType, was string) {
	addMessage(MessageInfo{Type: t, Name: "was " + was, Reserved: true})
}

func addMessage(m MessageInfo) {
	if m.Type == MsgInvalid {
		panic("wire: message type 0 is MsgInvalid and cannot be declared")
	}
	if prev, ok := msgTable[m.Type]; ok {
		panic(fmt.Sprintf("wire: message type %d (%s) declared again as %q", m.Type, prev.Name, m.Name))
	}
	for _, prev := range msgTable {
		if prev.Name == m.Name {
			panic(fmt.Sprintf("wire: message name %q declared for both %d and %d", m.Name, prev.Type, m.Type))
		}
	}
	msgTable[m.Type] = m
}

// Messages returns the whole table, live and reserved rows, ordered by
// number.
func Messages() []MessageInfo {
	out := make([]MessageInfo, 0, len(msgTable))
	for _, m := range msgTable {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// MsgName returns the name t is defined under, or "t<N>" for a number the
// table does not hold as live (a foreign or retired type seen on the
// wire).
func MsgName(t MsgType) string {
	if m, ok := msgTable[t]; ok && !m.Reserved {
		return m.Name
	}
	return "t" + itoa(uint64(t))
}

// IsIdempotent reports whether t is defined as safe to retransmit.
func IsIdempotent(t MsgType) bool { return msgTable[t].Idempotent }
