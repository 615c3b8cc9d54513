// Package e2e black-box tests the deployable system: it builds the real
// cmd/regserve binary and runs clusters of separate OS processes wired
// over real TCP sockets. Every read and write goes through one
// client.Client on the wire protocol, the only data path regserve
// serves; HTTP is used for /health and /leave alone. Nothing here
// imports the transport or the protocols. The register semantics are
// judged from the outside, by recording every operation's
// client-observed invocation/response interval into a spec.History and
// checking per-key regularity post hoc (client intervals enclose the true
// operation intervals, so the checker errs lenient, never strict: a
// reported violation is a real one).
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var chaosSeed = flag.Int64("chaos.seed", 0,
	"run the chaos schedule with this single seed (0 = the regression seed list)")

var chaosInflight = flag.Int("chaos.inflight", 1,
	"concurrent writers in TestE2EChaos (1 = one sequential writer; >1 pipelines writes, several on one key at once)")

// regressionSeeds pins schedules that exercised distinct interleavings;
// add a seed here whenever a chaos failure is found and fixed.
var regressionSeeds = []int64{1, 7}

// seedsToRun resolves the -chaos.seed flag.
func seedsToRun() []int64 {
	if *chaosSeed != 0 {
		return []int64{*chaosSeed}
	}
	return regressionSeeds
}

// binPath is the regserve binary TestMain builds once for every test.
var binPath string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		// Nothing in this package runs under -short; skip the build too.
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "regserve-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "regserve")
	args := []string{"build"}
	if raceEnabled {
		// The test binary runs with -race; give the daemon under test the
		// same instrumentation so data races in it fail the suite (an
		// instrumented daemon crashes with a race report and non-zero
		// exit, which the process checks surface).
		args = append(args, "-race")
	}
	args = append(args, "-o", binPath, "./cmd/regserve")
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot()
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "e2e: building regserve: %v\n%s", err, out)
		os.Exit(1)
	}
	// os.Exit skips defers, so clean up explicitly before exiting.
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "../.."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "../.."
		}
		dir = parent
	}
}

// node is one regserve OS process under test.
type node struct {
	id      int64
	cmd     *exec.Cmd
	listen  string // protocol TCP address
	api     string // HTTP admin address
	logs    *logBuffer
	exited  chan struct{} // closed once the process exited
	waitErr error         // cmd.Wait's result; read only after exited
}

// logBuffer accumulates a process's combined output for post-mortems.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startNode launches a regserve of cfg's system with ephemeral ports and
// waits for its REGSERVE line announcing the bound addresses. It returns
// an error rather than failing the test, so non-test goroutines (the
// churn schedule) can call it too; t is used only for cleanup and log
// capture, both of which are safe off the test goroutine while the test
// runs.
func startNode(t *testing.T, cfg chaosConfig, id int64, bootstrap bool, peers []string) (*node, error) {
	args := []string{
		"-id", fmt.Sprint(id),
		"-listen", "127.0.0.1:0",
		"-api", "127.0.0.1:0",
		"-protocol", cfg.protocol,
		"-n", fmt.Sprint(cfg.founders),
		"-delta", fmt.Sprint(cfg.delta),
		"-tick", "1ms",
	}
	if bootstrap {
		args = append(args, "-bootstrap")
	}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	if cfg.sharded {
		// Eviction tightened so placement heals within the run after a
		// crash.
		args = append(args, "-shards", fmt.Sprint(shards), "-replication", fmt.Sprint(replication),
			"-evict-after", evictAfter)
	}
	cmd := exec.Command(binPath, args...)
	logs := &logBuffer{}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("node %d: stdout pipe: %w", id, err)
	}
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("node %d: start: %w", id, err)
	}
	nd := &node{id: id, cmd: cmd, logs: logs, exited: make(chan struct{})}
	t.Cleanup(func() {
		nd.kill()
		if t.Failed() {
			t.Logf("node %d logs:\n%s", id, logs.String())
		}
	})

	// Scan stdout for the announce line, then keep draining into logs.
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logs, line)
			if !announced && strings.HasPrefix(line, "REGSERVE ") {
				announced = true
				lineCh <- line
			}
		}
	}()
	go func() {
		nd.waitErr = cmd.Wait()
		close(nd.exited)
	}()

	select {
	case line := <-lineCh:
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "listen="); ok {
				nd.listen = v
			}
			if v, ok := strings.CutPrefix(field, "api="); ok {
				nd.api = v
			}
		}
		if nd.listen == "" || nd.api == "" {
			return nil, fmt.Errorf("node %d: bad announce line %q", id, line)
		}
	case <-nd.exited:
		return nil, fmt.Errorf("node %d exited before announcing: %v\n%s", id, nd.waitErr, logs.String())
	case <-time.After(15 * time.Second):
		return nil, fmt.Errorf("node %d never announced its addresses\n%s", id, logs.String())
	}
	return nd, nil
}

// startFounders boots cfg's bootstrap processes, ids 1 to cfg.founders,
// each dialing those before it, and waits until every one is active and
// sees all the others.
func startFounders(t *testing.T, cfg chaosConfig) []*node {
	t.Helper()
	var founders []*node
	var peers []string
	for id := int64(1); id <= int64(cfg.founders); id++ {
		nd, err := startNode(t, cfg, id, true, peers)
		if err != nil {
			t.Fatal(err)
		}
		founders = append(founders, nd)
		peers = append(peers, nd.listen)
	}
	for _, nd := range founders {
		if err := waitHealthy(nd, cfg.founders-1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return founders
}

// kill force-terminates the process (SIGKILL), as a crash would.
// Idempotent: killing an already-exited process is a no-op.
func (n *node) kill() {
	select {
	case <-n.exited:
		return
	default:
	}
	if n.cmd.Process != nil {
		n.cmd.Process.Kill()
	}
	select {
	case <-n.exited:
	case <-time.After(10 * time.Second):
	}
}

// awaitExit waits for a voluntary exit (after /leave) and reports whether
// it was clean.
func (n *node) awaitExit(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-n.exited:
		if n.waitErr != nil {
			t.Errorf("node %d: unclean exit after leave: %v\n%s", n.id, n.waitErr, n.logs.String())
		}
	case <-time.After(timeout):
		t.Errorf("node %d: did not exit after leave", n.id)
		n.kill()
	}
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

// healthReply is the part of a /health answer the tests read.
type healthReply struct {
	Active bool `json:"active"`
	Peers  int  `json:"peers"`
}

func (n *node) health() (healthReply, error) {
	var h healthReply
	resp, err := httpClient.Get("http://" + n.api + "/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("health: http %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// leave asks the process to depart gracefully; it exits once it has.
func (n *node) leave() error {
	resp, err := httpClient.Post("http://"+n.api+"/leave", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leave: http %d", resp.StatusCode)
	}
	return nil
}

// waitHealthy polls /health until the node is active with at least
// wantPeers identified peers.
func waitHealthy(nd *node, wantPeers int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		h, err := nd.health()
		if err == nil && h.Active && h.Peers >= wantPeers {
			return nil
		}
		last = fmt.Sprintf("health=%+v err=%v", h, err)
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("node %d never became healthy (want >= %d peers): %s\n%s",
		nd.id, wantPeers, last, nd.logs.String())
}
