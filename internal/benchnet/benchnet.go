// Package benchnet measures what the wire-level hot-path overhaul buys,
// producing the BENCH_net.json artifact (via cmd/benchjson):
//
//   - Micro, frames/sec over one real TCP connection: the per-frame-
//     syscall baseline (encode each frame fresh, one conn.Write per
//     frame, raw unbuffered reads — the pre-overhaul wire path) against
//     the coalesced path (append-encode into one flush buffer, one write
//     per batch, buffered scanner with a reused payload buffer). The
//     ratio is the syscall amortization the transport's peer writers get.
//   - Allocations/op of the codec, measured with testing.AllocsPerRun:
//     append-encode into a recycled buffer (0), the scan/decode machinery
//     on control frames (0), and enveloped protocol messages (1 — the
//     unavoidable core.Message interface box).
//   - The ABD read-path split under a read-heavy deterministic sim
//     workload: fast (one-round) vs slow (write-back) read counts.
//   - Macro, client-observed regserve throughput: several regserve OS
//     processes over real TCP, one node driven by many concurrent HTTP
//     clients (the pipelined engine keeps them all in flight).
package benchnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/wire"
)

// microBatch is how many frames the coalesced micro leg puts in one
// write. The transport itself has no such knob: a link's writer flushes
// whatever is queued.
const microBatch = 64

// Config parameterizes one Run.
type Config struct {
	// Frames per micro measurement (default 100000).
	Frames int
	// AllocRuns is the AllocsPerRun iteration count (default 2000).
	AllocRuns int
	// MacroNodes is the regserve cluster size for the macro measurement
	// (default 6); MacroInflight the number of concurrent HTTP clients
	// (default 128); MacroDuration how long they hammer (default 3s).
	MacroNodes    int
	MacroInflight int
	MacroDuration time.Duration
	// SkipMacro omits the macro measurement (it builds cmd/regserve with
	// the go toolchain and spawns OS processes).
	SkipMacro bool
	// BinPath points at a prebuilt regserve binary; empty means build one.
	BinPath string
}

func (c *Config) fillDefaults() {
	if c.Frames <= 0 {
		c.Frames = 100000
	}
	if c.AllocRuns <= 0 {
		c.AllocRuns = 2000
	}
	if c.MacroNodes <= 0 {
		c.MacroNodes = 6
	}
	if c.MacroInflight <= 0 {
		c.MacroInflight = 128
	}
	if c.MacroDuration <= 0 {
		c.MacroDuration = 3 * time.Second
	}
}

// MicroResult is one frames/sec measurement over a real TCP connection.
type MicroResult struct {
	Mode         string  `json:"mode"` // "per_frame_syscall" or "coalesced"
	Frames       int     `json:"frames"`
	Seconds      float64 `json:"seconds"`
	FramesPerSec float64 `json:"frames_per_sec"`
}

// MacroResult is the OS-process cluster measurement.
type MacroResult struct {
	Nodes     int     `json:"nodes"`
	Inflight  int     `json:"inflight"`
	Ops       int     `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// Report is the artifact serialized as BENCH_net.json.
type Report struct {
	Name        string      `json:"name"`
	BatchFrames int         `json:"batch_frames"`
	Baseline    MicroResult `json:"baseline"`
	Coalesced   MicroResult `json:"coalesced"`
	// CoalescingSpeedup is coalesced ÷ baseline frames/sec — the number
	// the ≥2x acceptance floor guards.
	CoalescingSpeedup float64 `json:"coalescing_speedup"`
	// Codec allocations per operation (testing.AllocsPerRun): encoding
	// into a recycled buffer and the scan/decode machinery are 0;
	// enveloped messages cost exactly the one interface box.
	EncodeAllocsPerOp      float64 `json:"encode_allocs_per_op"`
	DecodeCodecAllocsPerOp float64 `json:"decode_codec_allocs_per_op"`
	DecodeMsgAllocsPerOp   float64 `json:"decode_msg_allocs_per_op"`
	// ABD read-path split under a read-heavy deterministic sim workload.
	ABDFastReads uint64 `json:"abd_fast_reads"`
	ABDSlowReads uint64 `json:"abd_slow_reads"`
	// Macro is nil when skipped.
	Macro *MacroResult `json:"macro,omitempty"`
}

// hotFrame is the representative hot-path frame the micro benchmarks
// push: a WRITE broadcast, a few dozen bytes like all quorum traffic.
func hotFrame(i int) wire.Frame {
	return wire.Frame{
		Type: wire.FrameMsg,
		From: 1,
		Msg: core.WriteMsg{
			From:  1,
			Value: core.VersionedValue{Val: core.Value(i), SN: core.SeqNum(i)},
			Reg:   7,
			Op:    core.OpID(i + 1),
		},
	}
}

// Run produces the full report.
func Run(cfg Config) (Report, error) {
	cfg.fillDefaults()
	rep := Report{Name: "net", BatchFrames: microBatch}

	var err error
	if rep.Baseline, err = runMicro(cfg.Frames, 1); err != nil {
		return rep, fmt.Errorf("baseline micro: %w", err)
	}
	if rep.Coalesced, err = runMicro(cfg.Frames, microBatch); err != nil {
		return rep, fmt.Errorf("coalesced micro: %w", err)
	}
	if rep.Baseline.FramesPerSec > 0 {
		rep.CoalescingSpeedup = rep.Coalesced.FramesPerSec / rep.Baseline.FramesPerSec
	}
	rep.EncodeAllocsPerOp, rep.DecodeCodecAllocsPerOp, rep.DecodeMsgAllocsPerOp = measureAllocs(cfg.AllocRuns)
	if rep.ABDFastReads, rep.ABDSlowReads, err = runReadPathSim(); err != nil {
		return rep, fmt.Errorf("abd read-path sim: %w", err)
	}
	if !cfg.SkipMacro {
		macro, err := runMacro(cfg)
		if err != nil {
			return rep, fmt.Errorf("macro: %w", err)
		}
		rep.Macro = &macro
	}
	return rep, nil
}

// runMicro pushes frames through one real TCP connection. batch == 1 is
// the pre-overhaul path: encode each frame into a fresh buffer, write it
// with its own syscall, read it with raw unbuffered reads (wire.ReadFrame
// straight off the conn). batch > 1 is the overhauled path: append-encode
// into one reused flush buffer, one write per batch, buffered Scanner on
// the read side. The measurement spans first byte written to last frame
// decoded.
func runMicro(frames, batch int) (MicroResult, error) {
	mode := "per_frame_syscall"
	if batch > 1 {
		mode = "coalesced"
	}
	res := MicroResult{Mode: mode, Frames: frames}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer ln.Close()
	readerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			readerDone <- err
			return
		}
		defer conn.Close()
		if batch > 1 {
			sc := wire.NewScanner(conn)
			for i := 0; i < frames; i++ {
				if _, err := sc.Next(); err != nil {
					readerDone <- fmt.Errorf("frame %d: %w", i, err)
					return
				}
			}
		} else {
			for i := 0; i < frames; i++ {
				if _, err := wire.ReadFrame(conn); err != nil {
					readerDone <- fmt.Errorf("frame %d: %w", i, err)
					return
				}
			}
		}
		readerDone <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return res, err
	}
	defer conn.Close()

	start := time.Now()
	if batch > 1 {
		buf := make([]byte, 0, 64*batch)
		n := 0
		for i := 0; i < frames; i++ {
			buf, err = wire.AppendFrameBytes(buf, hotFrame(i))
			if err != nil {
				return res, err
			}
			if n++; n == batch || i == frames-1 {
				if _, err := conn.Write(buf); err != nil {
					return res, err
				}
				buf, n = buf[:0], 0
			}
		}
	} else {
		for i := 0; i < frames; i++ {
			payload, err := wire.EncodeFrame(hotFrame(i))
			if err != nil {
				return res, err
			}
			if _, err := conn.Write(wire.FrameBytes(payload)); err != nil {
				return res, err
			}
		}
	}
	if err := <-readerDone; err != nil {
		return res, err
	}
	res.Seconds = time.Since(start).Seconds()
	res.FramesPerSec = float64(frames) / res.Seconds
	return res, nil
}

// measureAllocs reports the codec's steady-state allocations per
// operation: append-encode, the scanner on control frames (the machinery
// alone), and the scanner on enveloped messages (machinery + the one
// interface box).
func measureAllocs(runs int) (encode, decodeCodec, decodeMsg float64) {
	f := hotFrame(1)
	buf := make([]byte, 0, 256)
	encode = testing.AllocsPerRun(runs, func() {
		buf, _ = wire.AppendFrameBytes(buf[:0], f)
	})

	stream := func(fr wire.Frame) *wire.Scanner {
		var b []byte
		for i := 0; i < runs+10; i++ {
			b, _ = wire.AppendFrameBytes(b, fr)
		}
		return wire.NewScanner(bytes.NewReader(b))
	}
	sc := stream(wire.Frame{Type: wire.FrameLeave, From: 3})
	decodeCodec = testing.AllocsPerRun(runs, func() { sc.Next() })
	sm := stream(f)
	decodeMsg = testing.AllocsPerRun(runs, func() { sm.Next() })
	return encode, decodeCodec, decodeMsg
}

// runReadPathSim exercises the ABD one-round read fast path under a
// read-heavy deterministic workload: one settled write, then fifty reads
// round-robin across a five-process system; a concurrent write half-way
// through gives the slow path a cameo.
func runReadPathSim() (fast, slow uint64, err error) {
	const delta = 5
	sys, err := dynsys.New(dynsys.Config{
		N:       5,
		Delta:   delta,
		Model:   netsim.SynchronousModel{Delta: delta},
		Factory: abd.Factory(),
		Seed:    11,
		Initial: core.VersionedValue{Val: 0, SN: 0},
	})
	if err != nil {
		return 0, 0, err
	}
	ids := sys.ActiveIDs()
	write := func(v core.Value) error {
		n, ok := sys.Node(ids[0]).(*abd.Node)
		if !ok {
			return fmt.Errorf("node is %T", sys.Node(ids[0]))
		}
		if err := n.Write(v, nil); err != nil {
			return err
		}
		return sys.RunFor(4 * delta)
	}
	if err := write(1); err != nil {
		return 0, 0, err
	}
	const reads = 50
	for i := 0; i < reads; i++ {
		if i == reads/2 {
			// Mid-workload write, NOT awaited: the next reads race its
			// propagation, so some see mixed quorums and pay the
			// write-back — the slow-path counter's cameo.
			w, ok := sys.Node(ids[0]).(*abd.Node)
			if !ok {
				return 0, 0, fmt.Errorf("node is %T", sys.Node(ids[0]))
			}
			if err := w.Write(2, nil); err != nil {
				return 0, 0, err
			}
		}
		r := sys.Node(ids[i%len(ids)]).(*abd.Node)
		if err := r.Read(nil); err != nil {
			return 0, 0, err
		}
		if err := sys.RunFor(3 * delta); err != nil {
			return 0, 0, err
		}
	}
	for _, id := range ids {
		f, s := sys.Node(id).(*abd.Node).ReadPathCounts()
		fast, slow = fast+f, slow+s
	}
	return fast, slow, nil
}

// ---- macro: regserve OS processes ----

// macroNode is one spawned regserve.
type macroNode struct {
	cmd *exec.Cmd
	api string
}

// runMacro builds regserve (unless cfg.BinPath is set), boots
// cfg.MacroNodes bootstrap processes meshed via the first node's listen
// address, and drives the first node's HTTP API with cfg.MacroInflight
// concurrent clients mixing reads and writes over 16 keys.
func runMacro(cfg Config) (MacroResult, error) {
	res := MacroResult{Nodes: cfg.MacroNodes, Inflight: cfg.MacroInflight}
	bin := cfg.BinPath
	if bin == "" {
		dir, err := os.MkdirTemp("", "benchnet-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "regserve")
		build := exec.Command("go", "build", "-o", bin, "churnreg/cmd/regserve")
		if out, err := build.CombinedOutput(); err != nil {
			return res, fmt.Errorf("building regserve: %v\n%s", err, out)
		}
	}
	nodes := make([]*macroNode, 0, cfg.MacroNodes)
	defer func() {
		for _, nd := range nodes {
			nd.cmd.Process.Kill()
			nd.cmd.Wait()
		}
	}()
	var seed string
	for i := 1; i <= cfg.MacroNodes; i++ {
		args := []string{
			"-id", fmt.Sprint(i),
			"-listen", "127.0.0.1:0",
			"-api", "127.0.0.1:0",
			"-protocol", "esync",
			"-n", fmt.Sprint(cfg.MacroNodes),
			"-delta", "5",
			"-tick", "1ms",
			"-bootstrap",
		}
		if seed != "" {
			args = append(args, "-peers", seed)
		}
		nd, listen, err := startMacroNode(bin, args)
		if err != nil {
			return res, fmt.Errorf("node %d: %w", i, err)
		}
		nodes = append(nodes, nd)
		if seed == "" {
			seed = listen
		}
	}
	target := nodes[0]
	if err := waitMacroHealthy(target, cfg.MacroNodes-1, 30*time.Second); err != nil {
		return res, err
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.MacroInflight * 2,
			MaxIdleConnsPerHost: cfg.MacroInflight * 2,
		},
	}
	var (
		ops      atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	stop := time.Now().Add(cfg.MacroDuration)
	start := time.Now()
	for w := 0; w < cfg.MacroInflight; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			key := worker % 16
			for i := 0; time.Now().Before(stop); i++ {
				var url string
				if (worker+i)%2 == 0 {
					url = fmt.Sprintf("http://%s/write?key=%d&val=%d", target.api, key, i)
				} else {
					url = fmt.Sprintf("http://%s/read?key=%d", target.api, key)
				}
				method := "POST"
				if strings.Contains(url, "/read") {
					method = "GET"
				}
				req, err := http.NewRequest(method, url, nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s: http %d", url, resp.StatusCode))
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return res, err
	}
	res.Ops = int(ops.Load())
	res.Seconds = elapsed.Seconds()
	res.OpsPerSec = float64(res.Ops) / res.Seconds
	return res, nil
}

// startMacroNode launches one regserve and parses its REGSERVE announce
// line for the bound addresses.
func startMacroNode(bin string, args []string) (*macroNode, string, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "REGSERVE ") {
				lineCh <- line
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case line := <-lineCh:
		var listen, api string
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "listen="); ok {
				listen = v
			}
			if v, ok := strings.CutPrefix(field, "api="); ok {
				api = v
			}
		}
		if listen == "" || api == "" {
			cmd.Process.Kill()
			return nil, "", fmt.Errorf("bad announce line %q", line)
		}
		return &macroNode{cmd: cmd, api: api}, listen, nil
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		return nil, "", fmt.Errorf("regserve never announced its addresses")
	}
}

// waitMacroHealthy polls /health until the node reports active with
// wantPeers identified peers.
func waitMacroHealthy(nd *macroNode, wantPeers int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/health", nd.api))
		if err == nil {
			var h struct {
				Active bool `json:"active"`
				Peers  int  `json:"peers"`
			}
			dec := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if dec == nil && h.Active && h.Peers >= wantPeers {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("macro cluster never became healthy")
}
