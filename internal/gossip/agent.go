package gossip

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Agent is the component-side half of the state exchange service. An
// application component embeds an Agent in its lingua franca server; the
// Agent answers Gossip MsgGetState polls with the component's current
// state and applies MsgPutState pushes, invoking the component's
// registered state-update method — the "export a state-update method for
// each message type" requirement of section 2.3.
type Agent struct {
	addr string
	// metrics is the answering server's registry: the clock state
	// versions are stamped on.
	metrics *telemetry.Registry

	mu       sync.Mutex
	store    map[string]Stamped
	cmp      map[string]Comparator
	onUpdate map[string]func(Stamped)
	counter  uint64
}

// NewAgent creates an Agent answering on srv; addr is the component's
// public contact address (used as the origin of its state versions).
func NewAgent(srv *wire.Server, addr string) *Agent {
	a := &Agent{
		addr:     addr,
		metrics:  srv.Metrics(),
		store:    make(map[string]Stamped),
		cmp:      make(map[string]Comparator),
		onUpdate: make(map[string]func(Stamped)),
	}
	srv.Register(MsgGetState, wire.HandlerFunc(a.handleGet))
	srv.Register(MsgPutState, wire.HandlerFunc(a.handlePut))
	return a
}

// Track declares that this component synchronizes key with the named
// comparator; onUpdate (may be nil) is invoked whenever a fresher copy is
// installed by a Gossip push.
func (a *Agent) Track(key, comparator string, onUpdate func(Stamped)) error {
	cmp, ok := LookupComparator(comparator)
	if !ok {
		return fmt.Errorf("gossip: unknown comparator %q", comparator)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cmp[key] = cmp
	if onUpdate != nil {
		a.onUpdate[key] = onUpdate
	}
	return nil
}

// Set installs a new local version of key, bumping the agent's update
// counter. The new version spreads to peer components on the next Gossip
// synchronization round.
func (a *Agent) Set(key string, data []byte) Stamped {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counter++
	s := Stamped{
		Key:     key,
		Counter: a.counter,
		Unix:    a.metrics.Now().UnixNano(),
		Origin:  a.addr,
		Data:    append([]byte(nil), data...),
	}
	a.store[key] = s
	return s
}

// SetStamped installs a pre-stamped version verbatim if it is fresher than
// the current copy (used when state freshness is domain-defined, e.g.
// "largest counter example wins" under the bytes comparator).
func (a *Agent) SetStamped(s Stamped) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.installLocked(s)
}

// installLocked applies s if fresher; returns whether it was installed.
func (a *Agent) installLocked(s Stamped) bool {
	cmp := a.cmp[s.Key]
	if cmp == nil {
		cmp, _ = LookupComparator(CmpCounter)
	}
	cur, ok := a.store[s.Key]
	if ok && cmp(s, cur) <= 0 {
		return false
	}
	a.store[s.Key] = s
	return true
}

// Get returns the current local copy of key.
func (a *Agent) Get(key string) (Stamped, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.store[key]
	return s, ok
}

// Tracked returns every locally held state whose key starts with prefix,
// sorted by key — how a hierarchy reader enumerates all region rollups
// visible in its pool without knowing the region count.
func (a *Agent) Tracked(prefix string) []Stamped {
	a.mu.Lock()
	out := make([]Stamped, 0, len(a.store))
	for k, s := range a.store {
		if strings.HasPrefix(k, prefix) {
			out = append(out, s)
		}
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (a *Agent) handleGet(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	key, err := d.String()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	s, ok := a.store[key]
	a.mu.Unlock()
	if !ok {
		// Empty state: zero counter so anything beats it.
		s = Stamped{Key: key, Origin: a.addr}
	}
	return wire.Reply(MsgGetState, s), nil
}

func (a *Agent) handlePut(_ string, req *wire.Packet) (*wire.Packet, error) {
	s, err := DecodeStamped(req.Payload)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	installed := a.installLocked(s)
	cb := a.onUpdate[s.Key]
	a.mu.Unlock()
	if installed && cb != nil {
		cb(s)
	}
	return wire.Reply(MsgPutState, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutBool(installed)
	})), nil
}

// Register announces this component to a Gossip at gossipAddr for the
// given key/comparator, using client for transport.
func (a *Agent) Register(client *wire.Client, gossipAddr, key, comparator string, timeout time.Duration) error {
	if _, ok := LookupComparator(comparator); !ok {
		return fmt.Errorf("gossip: unknown comparator %q", comparator)
	}
	reg := Registration{Addr: a.addr, Key: key, Comparator: comparator}
	return client.CallMsg(gossipAddr, MsgRegister, reg, nil, timeout)
}
