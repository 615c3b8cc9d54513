//go:build linux

// Package cluster runs a cluster of regserve OS processes for a
// benchmark or a black-box test: spawn the bootstrap members, wait until
// every /health reports active with the full peer count, add a fresh-id
// joiner, ask a member to leave, kill one, and tear everything down. It
// also measures the processes from outside — CPU time and peak resident
// memory from /proc, and the summed /metrics counters — so a benchmark
// never has to import anything the daemon is built from.
//
// Every regserve is started in a process group of its own with a
// parent-death signal, and a Cluster is bound to a context: the group is
// killed when Stop is called, when the context is cancelled (SIGINT in a
// command that uses signal.NotifyContext), and when the spawning process
// dies without running either (a panic on another goroutine, SIGKILL).
// No exit path leaves a regserve behind.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Config describes the cluster to spawn.
type Config struct {
	// Bin is the regserve binary.
	Bin string
	// Nodes is the number of bootstrap members, and the constant system
	// size -n every process (joiners included) is told.
	Nodes int
	// Args are the regserve flags every process shares (protocol, δ,
	// tick, shards, replication). The cluster adds -id, -listen, -api, -n,
	// -bootstrap and -peers itself.
	Args []string
}

// Proc is one regserve OS process.
type Proc struct {
	// ID is the process id handed to regserve's -id flag.
	ID int64
	// Wire and API are the bound protocol and HTTP addresses.
	Wire, API string

	cmd    *exec.Cmd
	stderr *tailBuffer
	// exited is closed once cmd.Wait returned; cmd.ProcessState is valid
	// from then on.
	exited chan struct{}
}

// Pid is the OS process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Stderr is the tail of what the process has written to standard error.
func (p *Proc) Stderr() string { return p.stderr.String() }

// Cluster is a set of regserve processes started from one Config.
type Cluster struct {
	cfg     Config
	spawned time.Time
	stop    context.CancelFunc
	watched chan struct{} // closed when the context watcher has returned

	mu       sync.Mutex
	starting []*Proc // spawned, addresses not yet announced
	live     []*Proc // announced, oldest first
	gone     []*Proc // exited or killed, kept for their rusage
	stopped  bool    // set by Stop; refuses further spawns
	nextID   int64
	// departed holds the last /metrics scrape of every member that left
	// through Leave, so cluster-wide counter sums stay monotone.
	departed Metrics
}

// healthPoll is how often a health wait asks again. Set-up time is a
// benchmark metric, so the poll is kept well below the time being measured.
const healthPoll = 2 * time.Millisecond

// startTimeout bounds every wait for a process to announce itself, turn
// healthy, or exit after a leave.
const startTimeout = 20 * time.Second

var httpClient = &http.Client{Timeout: 5 * time.Second}

// Start spawns cfg.Nodes bootstrap members and returns once every one of
// them reports active with all the others as peers. On any failure the
// processes already started are killed before the error is returned.
// Cancelling ctx kills the cluster.
func Start(ctx context.Context, cfg Config) (*Cluster, error) {
	ctx, cancel := context.WithCancel(ctx)
	c := &Cluster{cfg: cfg, spawned: time.Now(), stop: cancel, watched: make(chan struct{}), departed: Metrics{}}
	go func() {
		defer close(c.watched)
		<-ctx.Done()
		c.killAll()
	}()
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.spawn(true); err != nil {
			c.Stop()
			return nil, err
		}
	}
	for _, p := range c.Members() {
		if err := c.waitHealthy(p, cfg.Nodes-1); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Spawned is the instant the first process was started.
func (c *Cluster) Spawned() time.Time { return c.spawned }

// Members returns the live processes, oldest first.
func (c *Cluster) Members() []*Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Proc(nil), c.live...)
}

// WireAddrs returns the protocol addresses of the live processes.
func (c *Cluster) WireAddrs() []string {
	var out []string
	for _, p := range c.Members() {
		out = append(out, p.Wire)
	}
	return out
}

// Join spawns a process with a fresh id that enters by dialling the live
// members, waits until its /health reports active with every live member
// as a peer, and returns it with the time from spawn to active.
func (c *Cluster) Join() (*Proc, time.Duration, error) {
	start := time.Now()
	want := len(c.Members())
	p, err := c.spawn(false)
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitHealthy(p, want); err != nil {
		c.Kill(p)
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// Leave asks p to depart gracefully (POST /leave) and waits for the
// process to exit, returning the time that took. The member's counters
// are scraped first so Scrape keeps counting them.
func (c *Cluster) Leave(p *Proc) (time.Duration, error) {
	last, err := scrape(p)
	if err != nil {
		return 0, fmt.Errorf("cluster: node %d: final scrape: %w", p.ID, err)
	}
	start := time.Now()
	resp, err := httpClient.Post("http://"+p.API+"/leave", "", nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: node %d: leave: %w", p.ID, err)
	}
	resp.Body.Close()
	select {
	case <-p.exited:
	case <-time.After(startTimeout):
		c.Kill(p)
		return 0, fmt.Errorf("cluster: node %d did not exit after /leave\n%s", p.ID, p.stderr)
	}
	c.mu.Lock()
	c.departed.add(last)
	c.mu.Unlock()
	c.retire(p)
	return time.Since(start), nil
}

// Kill terminates p's process group with SIGKILL, as a crash would, and
// waits for the process to be reaped.
func (c *Cluster) Kill(p *Proc) {
	kill(p)
	c.retire(p)
}

// Stop kills every process and waits until all of them have been reaped.
// It is safe to call more than once.
func (c *Cluster) Stop() {
	c.stop()
	<-c.watched
}

func (c *Cluster) killAll() {
	c.mu.Lock()
	c.stopped = true
	all := append(append([]*Proc(nil), c.starting...), c.live...)
	c.mu.Unlock()
	for _, p := range all {
		c.Kill(p)
	}
}

// kill sends SIGKILL to p's process group and waits for the reaper.
func kill(p *Proc) {
	select {
	case <-p.exited:
		return
	default:
	}
	// A negative pid addresses the group; regserve starts no children, so
	// this is belt and braces against one that some day does.
	_ = syscall.Kill(-p.Pid(), syscall.SIGKILL) // ESRCH: it exited meanwhile
	<-p.exited
}

// retire moves p to the exited list.
func (c *Cluster) retire(p *Proc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.starting = remove(c.starting, p)
	c.live = remove(c.live, p)
	c.gone = append(c.gone, p)
}

func remove(ps []*Proc, p *Proc) []*Proc {
	for i, q := range ps {
		if q == p {
			return append(ps[:i:i], ps[i+1:]...)
		}
	}
	return ps
}

// spawn starts one regserve and waits for its REGSERVE announce line.
func (c *Cluster) spawn(bootstrap bool) (*Proc, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: stopped")
	}
	c.nextID++
	id := c.nextID
	args := []string{
		"-id", strconv.FormatInt(id, 10),
		"-listen", "127.0.0.1:0",
		"-api", "127.0.0.1:0",
		"-n", strconv.Itoa(c.cfg.Nodes),
	}
	if bootstrap {
		args = append(args, "-bootstrap")
	}
	if len(c.live) > 0 {
		var peers []string
		for _, q := range c.live {
			peers = append(peers, q.Wire)
		}
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	args = append(args, c.cfg.Args...)

	cmd := exec.Command(c.cfg.Bin, args...)
	// Pdeathsig fires when the OS thread that forked the child exits; Go
	// only ends a thread whose goroutine exits while locked to it, which
	// nothing in a benchmark does, so in practice it fires when the
	// spawning process dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &Proc{ID: id, cmd: cmd, stderr: &tailBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	// Started and listed under one hold of the lock, so a concurrent Stop
	// either refuses this spawn or sees the process and kills it.
	c.starting = append(c.starting, p)
	c.mu.Unlock()

	announce := make(chan string, 1)
	go func() {
		// Wait must follow the last read of the pipe, so this goroutine
		// does both: it reads the announce line, drains the rest so the
		// child never blocks on a full pipe, then reaps.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "REGSERVE ") {
				announce <- line
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // read error = child gone; Wait reports it
		_ = cmd.Wait()                     // exit status is read from ProcessState
		close(p.exited)
	}()

	select {
	case line := <-announce:
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "listen="); ok {
				p.Wire = v
			}
			if v, ok := strings.CutPrefix(field, "api="); ok {
				p.API = v
			}
		}
		if p.Wire == "" || p.API == "" {
			c.Kill(p)
			return nil, fmt.Errorf("cluster: node %d: bad announce line %q", id, line)
		}
		c.mu.Lock()
		c.starting = remove(c.starting, p)
		c.live = append(c.live, p)
		c.mu.Unlock()
		return p, nil
	case <-p.exited:
		c.retire(p)
		return nil, fmt.Errorf("cluster: node %d exited before announcing: %v\n%s", id, cmd.ProcessState, p.stderr)
	case <-time.After(startTimeout):
		c.Kill(p)
		return nil, fmt.Errorf("cluster: node %d never announced its addresses\n%s", id, p.stderr)
	}
}

// waitHealthy polls p's /health until it reports active with at least
// wantPeers identified peers.
func (c *Cluster) waitHealthy(p *Proc, wantPeers int) error {
	deadline := time.Now().Add(startTimeout)
	var last string
	for time.Now().Before(deadline) {
		var h struct {
			Active bool `json:"active"`
			Peers  int  `json:"peers"`
		}
		err := getJSON("http://"+p.API+"/health", &h)
		if err == nil && h.Active && h.Peers >= wantPeers {
			return nil
		}
		last = fmt.Sprintf("health=%+v err=%v", h, err)
		select {
		case <-p.exited:
			return fmt.Errorf("cluster: node %d exited while joining: %v\n%s", p.ID, p.cmd.ProcessState, p.stderr)
		case <-time.After(healthPoll):
		}
	}
	return fmt.Errorf("cluster: node %d never became healthy (want %d peers): %s\n%s", p.ID, wantPeers, last, p.stderr)
}

func getJSON(url string, out any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// tailBuffer keeps the last few KiB of a process's stderr for error
// messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const tailBytes = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - tailBytes; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}
