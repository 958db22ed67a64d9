package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"everyware/internal/telemetry"
)

// output is a run's standard output; seen closes once a line containing
// marker has been written.
type output struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	marker string
	seen   chan struct{}
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	had := strings.Contains(o.buf.String(), o.marker)
	o.buf.Write(p)
	if !had && strings.Contains(o.buf.String(), o.marker) {
		close(o.seen)
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// after returns the first word following the marker.
func (o *output) after() string {
	s := o.String()
	return strings.Fields(s[strings.Index(s, o.marker)+len(o.marker):])[0]
}

// running is one in-process ew run.
type running struct {
	out    *output
	cancel context.CancelFunc
	exit   chan int
}

// start runs ew with args in process and waits until its output
// contains marker.
func start(t *testing.T, marker string, args ...string) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{out: &output{marker: marker, seen: make(chan struct{})}, cancel: cancel, exit: make(chan int, 1)}
	go func() { r.exit <- run(ctx, args, r.out) }()
	t.Cleanup(func() { r.stop() })
	select {
	case <-r.out.seen:
		return r
	case code := <-r.exit:
		r.exit <- code
		t.Fatalf("ew %s exited %d before printing %q:\n%s", args[0], code, marker, r.out)
	case <-time.After(15 * time.Second):
		t.Fatalf("ew %s never printed %q:\n%s", args[0], marker, r.out)
	}
	return nil
}

// stop cancels the run and returns its exit code.
func (r *running) stop() int {
	r.cancel()
	code := <-r.exit
	r.exit <- code
	return code
}

func TestEveryDaemonServesAndStops(t *testing.T) {
	const ephemeral = "127.0.0.1:0"
	const nowhere = "127.0.0.1:1" // refuses connections
	logd := start(t, "serving on ", "logd", "-listen", ephemeral)
	collector := logd.out.after()

	cases := map[string][]string{
		"gossip":  {"-listen", ephemeral, "-trace", collector},
		"sched":   {"-listen", ephemeral, "-trace", collector, "-n", "5", "-k", "3"},
		"pstate":  {"-listen", ephemeral, "-trace", collector, "-dir", t.TempDir()},
		"logd":    {"-listen", ephemeral},
		"client":  {"-listen", ephemeral, "-trace", collector, "-sched", nowhere},
		"ctrl":    {"-listen", ephemeral},
		"nws":     {"-listen", ephemeral},
		"obs":     {"-listen", ephemeral, "-scrape", nowhere},
		"gateway": {"-listen", ephemeral, "-sched", nowhere},
		"legion":  {"-listen", ephemeral, "-dir", t.TempDir()},
		"beat":    {"-id", "sched1", "-role", "sched", "-addr", nowhere, "-ctrl", nowhere},
		"sensor":  {"-name", "hostA", "-memory", nowhere},
	}
	for name := range ports {
		if cases[name] == nil {
			t.Errorf("daemon %s has no case", name)
		}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			marker := "serving on 127.0.0.1:"
			if _, listens := ports[name]; !listens {
				marker = "reporting to " + nowhere
			}
			r := start(t, marker, append([]string{name}, args...)...)
			if code := r.stop(); code != 0 {
				t.Fatalf("exit %d:\n%s", code, r.out)
			}
			if !strings.Contains(r.out.String(), "ew "+name+": shutting down") {
				t.Fatalf("no shutdown line:\n%s", r.out)
			}
		})
	}
	if code := logd.stop(); code != 0 {
		t.Fatalf("logd exit %d", code)
	}
}

func TestViewersAgainstDaemons(t *testing.T) {
	const ephemeral = "127.0.0.1:0"
	logd := start(t, "serving on ", "logd", "-listen", ephemeral).out.after()
	gossip := start(t, "serving on ", "gossip", "-listen", ephemeral, "-trace", logd).out.after()
	ctrl := start(t, "serving on ", "ctrl", "-listen", ephemeral).out.after()
	obs := start(t, "serving on ", "obs", "-listen", ephemeral, "-scrape", gossip, "-interval", "50ms").out.after()

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"top", "-once", gossip + ", " + logd}, "gossip@" + gossip},
		{[]string{"ctrl-watch", "-once", ctrl}, "MEMBER"},
		{[]string{"obs-alerts", obs}, ""},
		{[]string{"obs-query", obs}, ""},
		{[]string{"obs-watch", "-once", obs}, "alert(s) firing"},
		{[]string{"trace", logd}, ""},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := run(context.Background(), c.args, &out); code != 0 {
			t.Errorf("ew %s: exit %d:\n%s", strings.Join(c.args, " "), code, &out)
		} else if !strings.Contains(out.String(), c.want) {
			t.Errorf("ew %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.want, &out)
		}
	}
}

func TestRunUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"help"}, &out); code != 0 {
		t.Fatalf("help: exit %d", code)
	}
	for _, c := range commands {
		if !strings.Contains(out.String(), "  "+c.name+" ") {
			t.Errorf("help lacks %s:\n%s", c.name, &out)
		}
	}
	for _, args := range [][]string{nil, {"no-such"}, {"gossip", "-no-such-flag"}, {"trace"}} {
		if code := run(context.Background(), args, &out); code != 2 {
			t.Errorf("ew %v: exit %d, want 2", args, code)
		}
	}
}

// No two daemons share a default port, and every default is loopback.
func TestDefaultPortsDistinct(t *testing.T) {
	seen := map[int]string{}
	for role, port := range ports {
		if !strings.HasPrefix(defaultAddr(role), "127.0.0.1:") {
			t.Errorf("%s defaults to %s", role, defaultAddr(role))
		}
		if port == 0 {
			continue
		}
		if other, dup := seen[port]; dup {
			t.Errorf("%s and %s both default to port %d", role, other, port)
		}
		seen[port] = role
	}
}

func TestAddressLists(t *testing.T) {
	for in, want := range map[string][]string{
		"":                               nil,
		"h1:9001":                        {"h1:9001"},
		"h1:9001,h2:9001":                {"h1:9001", "h2:9001"},
		"127.0.0.1:9001, 127.0.0.1:9002": {"127.0.0.1:9001", "127.0.0.1:9002"},
		" h1:9001 ,\th2:9001 ":           {"h1:9001", "h2:9001"},
		"h1:9001,":                       {"h1:9001"},
		",, ,":                           nil,
		"h1:9001,,h2:9001":               {"h1:9001", "h2:9001"},
	} {
		if got := splitAddrs(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitAddrs(%q) = %q, want %q", in, got, want)
		}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		l := addrs(fs, "join", "default:1", "")
		if err := fs.Parse([]string{"-join", in}); err != nil {
			t.Fatal(err)
		}
		if got := []string(*l); !reflect.DeepEqual(got, want) {
			t.Errorf("-join %q = %q, want %q", in, got, want)
		}
	}
}

// The status line reads what the client's work loop writes.
func TestClientStatusWhileWorking(t *testing.T) {
	sched := start(t, "serving on ", "sched", "-listen", "127.0.0.1:0", "-n", "5", "-k", "3").out.after()
	fs := flag.NewFlagSet("ew client", flag.ContinueOnError)
	d := clientRole(fs, &daemonEnv{reg: telemetry.NewRegistry()})
	if err := fs.Parse([]string{"-sched", sched, "-cycles", "20"}); err != nil {
		t.Fatal(err)
	}
	dm, err := d.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.work(context.Background(), io.Discard)
	}()
	for {
		select {
		case <-done:
			if s := d.status(); !strings.HasPrefix(s, "20 cycles") {
				t.Fatalf("status %q after 20 cycles", s)
			}
			return
		default:
			d.status()
		}
	}
}
