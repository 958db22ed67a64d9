package wire_test

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"

	// Every package that declares messages, so the table under test is
	// the whole system's, not just wire's own four rows.
	_ "everyware/internal/applet"
	_ "everyware/internal/clique"
	_ "everyware/internal/ctrl"
	_ "everyware/internal/dtrace"
	_ "everyware/internal/globus"
	_ "everyware/internal/gossip"
	_ "everyware/internal/legion"
	_ "everyware/internal/logsvc"
	_ "everyware/internal/nws"
	_ "everyware/internal/obs"
	_ "everyware/internal/pstate"
	_ "everyware/internal/sched"
)

// msgOldPeer stands for the worst case of version skew: a type the
// sender's table marks idempotent and this server does not handle.
const msgOldPeer wire.MsgType = 242

func init() { wire.Define(msgOldPeer, "test.old_peer", true) }

// systemTable is wire.Messages() without the "test." rows this test
// binary declares for its own echo servers.
func systemTable() []wire.MessageInfo {
	var out []wire.MessageInfo
	for _, m := range wire.Messages() {
		if !strings.HasPrefix(m.Name, "test.") {
			out = append(out, m)
		}
	}
	return out
}

// idempotentByName pins the retransmit-safe set. It is spelled out here,
// not derived, so a message can only join or leave it in review.
var idempotentByName = []string{
	"clique.token",
	"ctrl.heartbeat", "ctrl.members", "ctrl.status",
	"gossip.get_state", "gossip.put_state", "gossip.register", "gossip.share_reg",
	"nws.forecast",
	"obs.alerts", "obs.query",
	"pstate.digest", "pstate.epoch_advance", "pstate.epoch_get", "pstate.pull",
	"pstate.set_peers", "pstate.store_at", "pstate.sync_now",
	"sched.report",
	"trace.fetch",
	"wire.ping", "wire.pong", "wire.telemetry",
}

// TestMessageTable checks the one table every wire message is declared
// in, and prints it (`make msgtable` regenerates DESIGN.md's listing from
// this output).
func TestMessageTable(t *testing.T) {
	liveName := regexp.MustCompile(`^[a-z]+\.[a-z_]+$`)
	reservedName := regexp.MustCompile(`^was [a-z]+\.[a-z_]+$`)
	var live, reserved int
	var idem []string
	var listing strings.Builder
	seen := map[string]wire.MsgType{}
	for _, m := range systemTable() {
		if prev, dup := seen[m.Name]; dup {
			t.Errorf("name %q declared for both %d and %d", m.Name, prev, m.Type)
		}
		seen[m.Name] = m.Type
		if m.Reserved {
			reserved++
			if !reservedName.MatchString(m.Name) {
				t.Errorf("reserved %d: name %q is not \"was pkg.verb\"", m.Type, m.Name)
			}
			if m.Idempotent || wire.IsIdempotent(m.Type) {
				t.Errorf("reserved %d (%s) is marked idempotent", m.Type, m.Name)
			}
			fmt.Fprintf(&listing, "%4d  reserved  %s\n", m.Type, m.Name)
			continue
		}
		live++
		if !liveName.MatchString(m.Name) {
			t.Errorf("message %d: name %q is not pkg.verb", m.Type, m.Name)
		}
		if got := wire.MsgName(m.Type); got != m.Name {
			t.Errorf("MsgName(%d) = %q, want %q", m.Type, got, m.Name)
		}
		mark := ""
		if m.Idempotent {
			idem = append(idem, m.Name)
			mark = "  idempotent"
		}
		fmt.Fprintf(&listing, "%4d  %s%s\n", m.Type, m.Name, mark)
	}
	t.Logf("%d live, %d reserved:\n%s", live, reserved, listing.String())
	if live != 37 || reserved != 18 {
		t.Errorf("table holds %d live and %d reserved messages, want 37 and 18", live, reserved)
	}
	sort.Strings(idem)
	if got, want := strings.Join(idem, " "), strings.Join(idempotentByName, " "); got != want {
		t.Errorf("idempotent set changed:\n got  %s\n want %s", got, want)
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Define of a reserved number", func() { wire.Define(30, "pstate.store_again", false) })
	mustPanic("Reserve of a live number", func() { wire.Reserve(wire.MsgPing, "wire.ping") })
	mustPanic("Define of a duplicate number", func() { wire.Define(wire.MsgPing, "wire.ping_again", true) })
	mustPanic("Define of a duplicate name", func() { wire.Define(250, "wire.ping", true) })
	mustPanic("Define of MsgInvalid", func() { wire.Define(wire.MsgInvalid, "wire.invalid", false) })
	mustPanic("a handler for a reserved number", func() {
		wire.NewServer().Register(30, wire.HandlerFunc(func(string, *wire.Packet) (*wire.Packet, error) { return nil, nil }))
	})
	mustPanic("a handler for an undeclared number", func() {
		wire.NewServer().Register(251, wire.HandlerFunc(func(string, *wire.Packet) (*wire.Packet, error) { return nil, nil }))
	})
	if wire.MsgName(30) != "t30" || wire.MsgName(251) != "t251" {
		t.Errorf("a reserved or undeclared number must render as t<N>, got %q and %q", wire.MsgName(30), wire.MsgName(251))
	}
}

// TestRemovedTypeIsDefinitiveRemoteError is the version-skew contract for
// retired message numbers: an old peer that still sends one — even one
// its own table marks idempotent, the worst case — gets the server's
// "no handler" answer as a *RemoteError on the first attempt. It neither
// hangs until the timeout nor walks the retry ladder.
func TestRemovedTypeIsDefinitiveRemoteError(t *testing.T) {
	retired := []wire.MsgType{msgOldPeer}
	for _, m := range systemTable() {
		if m.Reserved {
			retired = append(retired, m.Type)
		}
	}
	for _, tc := range []struct {
		name string
		tr   wire.Transport
	}{{"tcp", wire.TCP}, {"mem", wire.NewMemTransport()}} {
		t.Run(tc.name, func(t *testing.T) {
			s := wire.NewServer()
			s.Logf = func(string, ...any) {}
			s.Transport = tc.tr
			defer s.Close()
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c := wire.NewClient(time.Second)
			defer c.Close()
			c.Transport = tc.tr
			c.Metrics = telemetry.NewRegistry()
			c.Retry = &wire.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}

			for _, typ := range retired {
				_, err = c.Call(addr, &wire.Packet{Type: typ}, 5*time.Second)
				var remote *wire.RemoteError
				if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no handler for message type") {
					t.Fatalf("type %d: want RemoteError \"no handler for message type\", got %v", typ, err)
				}
			}
			snap := c.Metrics.Snapshot("wire.client.")
			if got := snap.Value("wire.client.retries"); got != 0 {
				t.Fatalf("wire.client.retries = %v; an unhandled type must not retry", got)
			}
			if sm, ok := snap.Find("wire.client.call.remote_error"); !ok || sm.Hist == nil || sm.Hist.Count != int64(len(retired)) {
				t.Fatalf("want exactly one remote_error call per retired type (%d), got %+v", len(retired), sm)
			}
		})
	}
}
