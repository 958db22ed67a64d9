package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"everyware/internal/ctrl"
	"everyware/internal/wire"
)

// bootAddr is where a member binds the first time: an ephemeral localhost
// port. Every later start of the member rebinds the address it got.
const bootAddr = "127.0.0.1:0"

// Daemon is what the member table needs of a running service.
type Daemon interface {
	Addr() string
	Close()
}

// StartFunc builds one daemon and starts it listening on listen. A member
// has exactly one: the table calls it with an ephemeral address to boot
// the member and with the member's bound address to restart it in place,
// so a healed, rolled-out or scaled-up daemon is configured by the code
// that configured it at boot. A StartFunc may read the table (sibling
// addresses) but must not operate on it.
type StartFunc func(listen string) (Daemon, error)

// StartDaemon adapts a service constructor to a StartFunc's result:
// StartDaemon(pstate.NewServer(cfg)), StartDaemon(sched.NewServer(cfg), nil).
func StartDaemon[D interface {
	Daemon
	Start() (string, error)
}](d D, err error) (Daemon, error) {
	if err != nil {
		return nil, err
	}
	if _, err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// Without returns addrs minus self — a member's siblings.
func Without(addrs []string, self string) []string {
	return slices.DeleteFunc(slices.Clone(addrs), func(a string) bool { return a == self })
}

// Entry is one row of the member table.
type Entry struct {
	// ID is the fleet-unique member name (g1, sched2, pstate3, ctrl1,
	// logd1) — the same name the member's heartbeats carry.
	ID, Role string
	// Addr is the address the member bound at boot and keeps for life.
	Addr string
	// Daemon is the member's current incarnation; after Kill, the corpse.
	Daemon Daemon
	// Up is false between Kill and the next Restart. It is the table
	// owner's knowledge, not a health verdict.
	Up bool
	// Beater is the member's heartbeat sidecar (nil before Shadow, and
	// for controllers).
	Beater *ctrl.Beater
}

type member struct {
	Entry
	start StartFunc
	// op serializes Kill, Restart, Remove and Close of this member, and is
	// held while its StartFunc runs.
	op sync.Mutex
}

// MemberTable is the one record of a fleet's daemons. Boot, kill,
// restart in place, scale-up, retirement and shutdown are operations on
// it, and the control plane's hooks resolve members through it by ID.
// The zero value is an empty table.
type MemberTable struct {
	mu      sync.Mutex
	closed  bool
	members []*member
	// shadow, once set, is the sidecar template: every service member
	// gets a beater built from it.
	shadow *ctrl.BeaterConfig
}

var errTableClosed = fmt.Errorf("core: member table closed")

// Add boots a new member on an ephemeral port and returns the address it
// bound. Under Shadow the member is heartbeating before Add returns.
func (t *MemberTable) Add(id, role string, start StartFunc) (string, error) {
	d, err := start(bootAddr)
	if err != nil {
		return "", fmt.Errorf("core: start %s: %w", id, err)
	}
	m := &member{Entry: Entry{ID: id, Role: role, Addr: d.Addr(), Daemon: d, Up: true}, start: start}
	t.mu.Lock()
	closed := t.closed
	if !closed {
		t.members = append(t.members, m)
		t.beatLocked(m)
	}
	t.mu.Unlock()
	if closed {
		d.Close()
		return "", errTableClosed
	}
	return m.Addr, nil
}

// Kill closes the member's daemon and leaves the row in place for Restart.
func (t *MemberTable) Kill(id string) error {
	m, err := t.lookup(id)
	if err != nil {
		return err
	}
	m.op.Lock()
	defer m.op.Unlock()
	t.mu.Lock()
	m.Up = false
	t.mu.Unlock()
	m.Daemon.Close()
	return nil
}

// Restart recreates the member in place — same ID, same address, same
// StartFunc — whether or not its daemon is still running.
func (t *MemberTable) Restart(id string) error {
	m, err := t.lookup(id)
	if err != nil {
		return err
	}
	m.op.Lock()
	defer m.op.Unlock()
	m.Daemon.Close() // release the address before rebinding it
	d, err := m.start(m.Addr)
	if err != nil {
		return fmt.Errorf("core: restart %s: %w", id, err)
	}
	// The table may have been closed, or the member removed, while the
	// daemon was starting: then nothing owns the newborn, so it goes.
	t.mu.Lock()
	owned := !t.closed && t.indexLocked(id) >= 0
	if owned {
		m.Daemon, m.Up = d, true
	}
	t.mu.Unlock()
	if !owned {
		d.Close()
		return fmt.Errorf("core: restart %s: no longer in the table", id)
	}
	if m.Role == ctrl.RoleCtrl {
		t.joinGroup()
	}
	return nil
}

// Remove retires the member: its sidecar and daemon stop and its row goes.
func (t *MemberTable) Remove(id string) error {
	m, err := t.lookup(id)
	if err != nil {
		return err
	}
	m.op.Lock()
	defer m.op.Unlock()
	t.mu.Lock()
	if i := t.indexLocked(id); i >= 0 {
		t.members = slices.Delete(t.members, i, i+1)
	}
	beater := m.Beater
	t.mu.Unlock()
	if beater != nil {
		beater.Close()
	}
	m.Daemon.Close()
	return nil
}

// Shadow puts the fleet under the controllers in the table: they join
// one election group (their addresses are only all known now, after every
// one has bound), and every service member — present or added later —
// gets a heartbeat sidecar broadcasting to all of them.
func (t *MemberTable) Shadow(interval time.Duration, tr wire.Transport) {
	group := t.joinGroup()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.shadow = &ctrl.BeaterConfig{Ctrls: group, Interval: interval, Transport: tr}
	for _, m := range t.members {
		t.beatLocked(m)
	}
}

// joinGroup wires the table's controllers into one election group and
// returns their addresses. A controller that has joined ignores the call,
// so this serves the boot of the whole group and the restart of one of
// its members alike.
func (t *MemberTable) joinGroup() []string {
	group := t.Addrs(ctrl.RoleCtrl)
	if len(group) > 1 {
		for _, cs := range Daemons[*ctrl.Server](t, ctrl.RoleCtrl) {
			cs.JoinGroup(group)
		}
	}
	return group
}

// beatLocked starts m's sidecar if the table is shadowed. Controllers
// are not shadowed: their liveness is the election's business.
func (t *MemberTable) beatLocked(m *member) {
	if t.shadow == nil || m.Role == ctrl.RoleCtrl {
		return
	}
	cfg := *t.shadow
	cfg.Member = ctrl.Member{ID: m.ID, Role: m.Role, Addr: m.Addr}
	m.Beater = ctrl.NewBeater(cfg)
	m.Beater.Start()
}

// Close stops the fleet: the sidecars first, so nothing attests a daemon
// that is about to go, then the daemons in reverse boot order —
// controllers before the services they would otherwise try to heal,
// services before the logging server they forward to. Idempotent; every
// later Add, Kill, Restart and Remove is refused.
func (t *MemberTable) Close() {
	t.mu.Lock()
	var members []*member
	if !t.closed {
		members = append(members, t.members...)
	}
	t.closed = true
	t.mu.Unlock()
	for _, m := range members {
		if m.Beater != nil {
			m.Beater.Close()
		}
	}
	for i := len(members) - 1; i >= 0; i-- {
		m := members[i]
		m.op.Lock() // a Restart in flight finishes, finds the table closed, and reaps its own newborn
		m.Daemon.Close()
		m.op.Unlock()
	}
}

// Entries snapshots the rows of one role ("" for all) in boot order.
func (t *MemberTable) Entries(role string) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Entry
	for _, m := range t.members {
		if role == "" || m.Role == role {
			out = append(out, m.Entry)
		}
	}
	return out
}

// Get returns the row named id.
func (t *MemberTable) Get(id string) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.indexLocked(id); i >= 0 {
		return t.members[i].Entry, true
	}
	return Entry{}, false
}

// Addrs lists the bound addresses of one role ("" for all) in boot order.
func (t *MemberTable) Addrs(role string) []string {
	var out []string
	for _, e := range t.Entries(role) {
		out = append(out, e.Addr)
	}
	return out
}

// Daemons returns one role's current incarnations as their concrete
// type, in boot order.
func Daemons[T Daemon](t *MemberTable, role string) []T {
	entries := t.Entries(role)
	out := make([]T, len(entries))
	for i, e := range entries {
		out[i] = e.Daemon.(T)
	}
	return out
}

func (t *MemberTable) indexLocked(id string) int {
	return slices.IndexFunc(t.members, func(m *member) bool { return m.ID == id })
}

// lookup resolves id for an operation, refusing once the table is closed.
func (t *MemberTable) lookup(id string) (*member, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errTableClosed
	}
	if i := t.indexLocked(id); i >= 0 {
		return t.members[i], nil
	}
	return nil, fmt.Errorf("core: no member %q", id)
}
