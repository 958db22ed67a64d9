package everyware

// Binary-level smoke test: builds the ew binary and runs its daemons as OS
// processes wired together on localhost — the deployment story a
// downstream user follows, executed end to end.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildEW compiles the ew binary into dir.
func buildEW(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ew")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ew")
	cmd.Env = os.Environ()
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ew: %v\n%s", err, b)
	}
	return bin
}

// daemon starts a binary and scans its stdout for the "serving on <addr>"
// line, returning the bound address.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func startDaemon(t *testing.T, bin string, addrMarker string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// Scan for the serving line.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before announcing its address", bin)
			}
			if i := strings.Index(line, addrMarker); i >= 0 {
				rest := strings.Fields(line[i+len(addrMarker):])
				if len(rest) > 0 {
					d.addr = strings.TrimRight(rest[0], ",")
					return d
				}
			}
		case <-deadline:
			t.Fatalf("%s never announced its address", bin)
		}
	}
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in short mode")
	}
	dir := t.TempDir()
	ew := buildEW(t, dir)

	logd := startDaemon(t, ew, "serving on", "logd", "-listen", "127.0.0.1:0")
	stateDir := filepath.Join(dir, "state")
	pstate := startDaemon(t, ew, "serving on", "pstate", "-listen", "127.0.0.1:0", "-dir", stateDir)
	gossip := startDaemon(t, ew, "serving on", "gossip", "-listen", "127.0.0.1:0")
	sched := startDaemon(t, ew, "serving on",
		"sched", "-listen", "127.0.0.1:0", "-n", "5", "-k", "3", "-steps", "3000", "-log", logd.addr)

	for name, d := range map[string]*daemon{"logd": logd, "pstate": pstate, "gossip": gossip, "sched": sched} {
		if d.addr == "" || !strings.Contains(d.addr, ":") {
			t.Fatalf("%s address = %q", name, d.addr)
		}
	}

	// Run a client for a bounded number of cycles against the daemons.
	client := exec.Command(ew, "client",
		"-id", "smoke-client", "-infra", "unix",
		"-sched", sched.addr, "-gossip", gossip.addr,
		"-pstate", pstate.addr, "-log", logd.addr,
		"-cycles", "40")
	out, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("ew client: %v\n%s", err, out)
	}
	// The K5 R(3) search finds a counter-example almost immediately; the
	// client reports the replicated best bound on exit.
	if !strings.Contains(string(out), "R(3) > 5") {
		t.Logf("client output:\n%s", out)
		t.Fatal("client never learned of an R(3) > 5 counter-example")
	}
	// The persistent state directory must contain the checkpointed object.
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".obj") {
			stored++
		}
	}
	if stored == 0 {
		t.Fatal("persistent state manager stored nothing on disk")
	}
}

func TestRamseyBinaryVerifiesPaley(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in short mode")
	}
	dir := t.TempDir()
	out, err := exec.Command(buildEW(t, dir), "ramsey", "-paley", "17", "-k", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("ew ramsey: %v\n%s", err, out)
	}
	want := fmt.Sprintf("counter-example: R(%d) > %d", 4, 17)
	if !strings.Contains(string(out), want) {
		t.Fatalf("output %q missing %q", out, want)
	}
}
