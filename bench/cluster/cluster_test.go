//go:build linux

package cluster

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests run the cluster helper against a stand-in for regserve: this
// test binary started again with helperEnv set. As "regserve" it announces
// two addresses, serves /health, /metrics and /leave, and records its pid
// in pidDirEnv so a test can tell afterwards whether it is still alive. As
// "runner" it is a benchmark in miniature: it starts a cluster of
// stand-ins under signal.NotifyContext and waits to be interrupted.
const (
	helperEnv = "BENCH_CLUSTER_HELPER"
	pidDirEnv = "BENCH_CLUSTER_PIDS"
	// failIDEnv names the -id whose stand-in exits before announcing.
	failIDEnv = "BENCH_CLUSTER_FAIL_ID"
)

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "regserve":
		fakeRegserve()
	case "runner":
		runner()
	default:
		os.Exit(m.Run())
	}
}

func fakeRegserve() {
	fs := flag.NewFlagSet("regserve", flag.ExitOnError)
	id := fs.Int64("id", 0, "")
	n := fs.Int("n", 0, "")
	fs.String("listen", "", "")
	fs.String("api", "", "")
	fs.String("peers", "", "")
	fs.Bool("bootstrap", false, "")
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	pidFile := filepath.Join(os.Getenv(pidDirEnv), strconv.FormatInt(*id, 10))
	if err := os.WriteFile(pidFile, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if os.Getenv(failIDEnv) == strconv.FormatInt(*id, 10) {
		fmt.Fprintln(os.Stderr, "stand-in told to fail")
		os.Exit(3)
	}
	wire, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(2)
	}
	api, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(2)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"active":true,"peers":%d}`, *n)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "# HELP x y\nregserve_forward_total{op=\"read\"} %d\n", 10**id)
		fmt.Fprintf(w, "regserve_transport_flushed_frames_total 300\nregserve_transport_frames_per_write 1.5\n")
	})
	mux.HandleFunc("/leave", func(http.ResponseWriter, *http.Request) {
		go func() {
			time.Sleep(10 * time.Millisecond)
			os.Exit(0)
		}()
	})
	fmt.Printf("REGSERVE id=%d listen=%s api=%s protocol=fake bootstrap=true\n", *id, wire.Addr(), api.Addr())
	_ = http.Serve(api, mux) // serves until the process is killed
}

func runner() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Setenv(helperEnv, "regserve")
	c, err := Start(ctx, Config{Bin: os.Args[0], Nodes: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer c.Stop()
	fmt.Println("READY")
	<-ctx.Done()
}

// standIns points the helper at this binary and returns the directory in
// which the stand-ins record their pids.
func standIns(t *testing.T) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv(helperEnv, "regserve")
	t.Setenv(pidDirEnv, dir)
	return Config{Bin: os.Args[0], Nodes: 3}, dir
}

// alive reports whether pid is a running process (a zombie is not).
func alive(pid int) bool {
	fields, err := statFields(pid)
	return err == nil && len(fields) > 0 && fields[0] != "Z" && fields[0] != "X"
}

// assertAllGone fails if any stand-in that recorded its pid in dir is
// still running shortly after.
func assertAllGone(t *testing.T, dir string, want int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != want {
		t.Fatalf("%d stand-ins recorded a pid, want %d", len(entries), want)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pid, err := strconv.Atoi(string(b))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for alive(pid) {
			if time.Now().After(deadline) {
				t.Errorf("stand-in %s (pid %d) is still running", e.Name(), pid)
				_ = syscall.Kill(pid, syscall.SIGKILL)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestLifecycleAndMeasurement(t *testing.T) {
	cfg, dir := standIns(t)
	c, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got := len(c.Members()); got != 3 {
		t.Fatalf("%d members after Start, want 3", got)
	}
	for _, addr := range c.WireAddrs() {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			t.Fatalf("wire address %q: %v", addr, err)
		}
	}

	joiner, took, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	if joiner.ID != 4 || took <= 0 || len(c.Members()) != 4 {
		t.Fatalf("joiner id %d after %v, %d members; want a fresh id 4 and 4 members", joiner.ID, took, len(c.Members()))
	}

	before, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	const forwards = `regserve_forward_total{op="read"}`
	if before[forwards] != 10+20+30+40 {
		t.Fatalf("%s summed to %v over four members, want 100", forwards, before[forwards])
	}
	if before[FlushWrites] != 4*200 {
		t.Fatalf("%s = %v, want 300/1.5 per member", FlushWrites, before[FlushWrites])
	}

	oldest := c.Members()[0]
	if _, err := c.Leave(oldest); err != nil {
		t.Fatal(err)
	}
	if oldest.ID != 1 || len(c.Members()) != 3 || alive(oldest.Pid()) {
		t.Fatalf("after the leave of node %d: %d members, alive=%v", oldest.ID, len(c.Members()), alive(oldest.Pid()))
	}
	after, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	if after[forwards] != before[forwards] {
		t.Fatalf("%s fell from %v to %v when a member left", forwards, before[forwards], after[forwards])
	}

	cpu1, err := c.CPU()
	if err != nil {
		t.Fatal(err)
	}
	c.Kill(c.Members()[0])
	cpu2, err := c.CPU()
	if err != nil {
		t.Fatal(err)
	}
	if cpu1 <= 0 || cpu2 < cpu1 {
		t.Fatalf("CPU went from %v to %v across a kill; it counts exited processes and never falls", cpu1, cpu2)
	}
	if rss, err := c.PeakRSS(); err != nil || rss < 1<<20 {
		t.Fatalf("peak RSS of two live processes = %d bytes, err %v", rss, err)
	}

	c.Stop()
	c.Stop()
	if _, _, err := c.Join(); err == nil {
		t.Fatal("a stopped cluster accepted a joiner")
	}
	assertAllGone(t, dir, 4)
}

func TestFailedStartLeavesNoProcess(t *testing.T) {
	cfg, dir := standIns(t)
	t.Setenv(failIDEnv, "3")
	c, err := Start(context.Background(), cfg)
	if err == nil {
		c.Stop()
		t.Fatal("Start succeeded although the third process exits at once")
	}
	if !strings.Contains(err.Error(), "node 3") || !strings.Contains(err.Error(), "told to fail") {
		t.Fatalf("error does not name the node and carry its stderr: %v", err)
	}
	assertAllGone(t, dir, 3)
}

func TestCancelledContextKillsTheCluster(t *testing.T) {
	cfg, dir := standIns(t)
	ctx, cancel := context.WithCancel(context.Background())
	c, err := Start(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	c.Stop() // returns once the watcher has reaped everything
	assertAllGone(t, dir, 3)
}

// TestInterruptedOrKilledRunLeavesNoProcess runs a benchmark in miniature
// as a child process and ends it the two ways a run gets cut short: SIGINT,
// which it handles, and SIGKILL, which it cannot.
func TestInterruptedOrKilledRunLeavesNoProcess(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), helperEnv+"=runner", pidDirEnv+"="+dir)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			ready := bufio.NewScanner(out)
			if !ready.Scan() || ready.Text() != "READY" {
				_ = cmd.Process.Kill()
				t.Fatalf("the runner did not come up: %q", ready.Text())
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			_ = cmd.Wait() // killed, or exit 0 after the interrupt
			assertAllGone(t, dir, 3)
		})
	}
}
