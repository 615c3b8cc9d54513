//go:build linux

// Package layers times calls into the public functions of each layer
// under a regserve, one layer at a time and in this process, so that an
// end-to-end latency measured from outside can be set against what its
// parts cost alone:
//
//   - net: a raw TCP echo over loopback, the machine's floor for any hop;
//   - wire: encoding and decoding the frames of one operation;
//   - placement: building a view and looking a key up in it;
//   - nettransport: one message from Send on one Transport to Deliver on
//     another;
//   - nodeops: a whole read and write through Transport.Invoke on three
//     in-process Transports — mailbox, protocol step and quorum round
//     trip, with no client hop;
//   - abd, syncreg, shard: messages and rounds per operation, counted
//     under internal/dynsys with its seeded scheduler, so they repeat
//     exactly.
//
// The timed legs use the reference cluster's configuration (3 members, 8
// shards, replication 3, 1 ms tick).
package layers

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/dynsys"
	"churnreg/internal/netsim"
	"churnreg/internal/nettransport"
	"churnreg/internal/placement"
	"churnreg/internal/shard"
	"churnreg/internal/sim"
	"churnreg/internal/syncreg"
	"churnreg/internal/wire"
)

// Metric is one measured value.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// The reference configuration.
const (
	members = 3
	delta   = 5
)

var refPlacement = placement.Config{Shards: 8, Replication: 3}

// Measure runs every leg.
func Measure() ([]Metric, error) {
	var out []Metric
	for _, leg := range []func() ([]Metric, error){loopback, codec, placementLeg, hop, nodeOps, Counts} {
		ms, err := leg()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// p50us returns the median of ds in microseconds.
func p50us(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2]) / float64(time.Microsecond)
}

// loopback measures the round trip of a frame-sized message over a raw
// TCP connection to this machine.
func loopback() ([]Metric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(conn, conn) // ends when the dialler closes
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	const trips = 2000
	msg := make([]byte, 40) // about one FORWARD frame
	rtts := make([]time.Duration, 0, trips)
	for i := 0; i < trips; i++ {
		t := time.Now()
		if _, err := conn.Write(msg); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			return nil, err
		}
		rtts = append(rtts, time.Since(t))
	}
	return []Metric{{"net.loopback_rtt_us", p50us(rtts), "us"}}, nil
}

// opFrames returns the frames one client operation puts on the wire in
// the reference cluster: the client's FORWARD, the messages the serving
// replica's abd engine exchanges with its group, and the FORWARDED reply.
func opFrames(write bool) ([]wire.Frame, error) {
	sys, err := newSystem(shard.Factory(abd.Factory()), members, 1)
	if err != nil {
		return nil, err
	}
	const reg = core.RegisterID(7)
	server := sys.Placement().Group(reg)[0]
	frames := []wire.Frame{{Type: wire.FrameMsg, From: -1, Msg: core.ForwardMsg{From: -1, Op: 1, Reg: reg, IsWrite: write, Val: 42}}}
	sys.Network().SetDropRule(func(from, to core.ProcessID, m core.Message, _ sim.Time) bool {
		if from != to { // the loopback copy never reaches a socket
			frames = append(frames, wire.Frame{Type: wire.FrameMsg, From: from, Msg: m})
		}
		return false
	})
	var result core.VersionedValue
	if err := invoke(sys, server, reg, write, func(v core.VersionedValue) { result = v }); err != nil {
		return nil, err
	}
	return append(frames, wire.Frame{Type: wire.FrameMsg, From: server,
		Msg: core.ForwardedMsg{From: server, Op: 1, Reg: reg, Value: result, Code: core.ForwardOK}}), nil
}

// codec times the wire codec over the frames of one read, and reports the
// bytes a read and a write put on the wire.
func codec() ([]Metric, error) {
	readFrames, err := opFrames(false)
	if err != nil {
		return nil, err
	}
	writeFrames, err := opFrames(true)
	if err != nil {
		return nil, err
	}
	encode := func(dst []byte, frames []wire.Frame) ([]byte, error) {
		for _, f := range frames {
			var err error
			if dst, err = wire.AppendFrameBytes(dst, f); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	readBytes, err := encode(nil, readFrames)
	if err != nil {
		return nil, err
	}
	writeBytes, err := encode(nil, writeFrames)
	if err != nil {
		return nil, err
	}

	const rounds = 20000
	buf := make([]byte, 0, len(readBytes))
	t := time.Now()
	for i := 0; i < rounds; i++ {
		if buf, err = encode(buf[:0], readFrames); err != nil {
			return nil, err
		}
	}
	encodeNs := float64(time.Since(t)) / float64(rounds*len(readFrames))

	stream := bytes.Repeat(readBytes, rounds)
	sc := wire.NewScanner(bytes.NewReader(stream))
	t = time.Now()
	for i := 0; i < rounds*len(readFrames); i++ {
		if _, err := sc.Next(); err != nil {
			return nil, err
		}
	}
	decodeNs := float64(time.Since(t)) / float64(rounds*len(readFrames))

	sc = wire.NewScanner(bytes.NewReader(stream))
	allocs := testing.AllocsPerRun(rounds-1, func() { _, _ = sc.Next() }) // the stream was decoded without error above

	return []Metric{
		{"wire.encode_ns_per_frame", encodeNs, "ns"},
		{"wire.decode_ns_per_frame", decodeNs, "ns"},
		{"wire.allocs_per_decode", allocs, "count"},
		{"wire.bytes_per_read_op", float64(len(readBytes)), "B"},
		{"wire.bytes_per_write_op", float64(len(writeBytes)), "B"},
	}, nil
}

// placementLeg times building the view a membership change triggers and
// the lookup every operation makes.
func placementLeg() ([]Metric, error) {
	ids := []core.ProcessID{1, 2, 3, 4}
	const builds = 2000
	t := time.Now()
	var v *placement.View
	for i := 0; i < builds; i++ {
		v = placement.Build(refPlacement, ids)
	}
	buildUs := float64(time.Since(t)) / builds / float64(time.Microsecond)

	const lookups = 1 << 20
	t = time.Now()
	n := 0
	for i := 0; i < lookups; i++ {
		n += len(v.Group(core.RegisterID(i)))
	}
	lookupNs := float64(time.Since(t)) / lookups
	if n != lookups*refPlacement.Replication {
		return nil, fmt.Errorf("layers: placement lookups returned %d members, want %d", n, lookups*refPlacement.Replication)
	}
	return []Metric{
		{"placement.build_us", buildUs, "us"},
		{"placement.lookup_ns", lookupNs, "ns"},
	}, nil
}

// sink is a protocol node that only reports what it is delivered.
type sink struct{ got chan core.Message }

func (s *sink) Start()                                   {}
func (s *sink) Deliver(_ core.ProcessID, m core.Message) { s.got <- m }
func (s *sink) Active() bool                             { return true }
func (s *sink) Snapshot() core.VersionedValue            { return core.VersionedValue{} }

// startTransports starts n bootstrap Transports on loopback, meshed, and
// returns them once each knows all the others.
func startTransports(n int, factory core.NodeFactory, pc placement.Config) ([]*nettransport.Transport, error) {
	var trs []*nettransport.Transport
	stop := func() {
		for _, tr := range trs {
			tr.Close()
		}
	}
	var seeds []string
	for i := 1; i <= n; i++ {
		tr, err := nettransport.New(nettransport.Config{
			ID: core.ProcessID(i), ListenAddr: "127.0.0.1:0", N: n, Delta: delta,
			Factory: factory, Bootstrap: true, Placement: pc,
		})
		if err != nil {
			stop()
			return nil, err
		}
		trs = append(trs, tr)
		tr.Start(seeds)
		seeds = append(seeds, tr.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, tr := range trs {
		for tr.PeerCount() < n-1 {
			if time.Now().After(deadline) {
				stop()
				return nil, fmt.Errorf("layers: in-process transports never meshed")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return trs, nil
}

// hop measures one message from Send on one Transport to Deliver on the
// other: encode, peer queue, coalescing writer, socket, scanner, mailbox.
func hop() ([]Metric, error) {
	got := make(chan core.Message, 1)
	trs, err := startTransports(2, func(core.Env, core.SpawnContext) core.Node { return &sink{got: got} }, placement.Config{})
	if err != nil {
		return nil, err
	}
	defer trs[0].Close()
	defer trs[1].Close()
	const sends = 2000
	took := make([]time.Duration, 0, sends)
	for i := 0; i < sends; i++ {
		t := time.Now()
		trs[0].Send(trs[1].ID(), core.ReadMsg{From: trs[0].ID(), Op: core.OpID(i + 1)})
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("layers: message %d was never delivered", i)
		}
		took = append(took, time.Since(t))
	}
	return []Metric{{"nettransport.hop_p50_us", p50us(took), "us"}}, nil
}

// nodeOps measures whole reads and writes entered at a replica of an
// in-process abd cluster.
func nodeOps() ([]Metric, error) {
	trs, err := startTransports(members, shard.Factory(abd.Factory()), refPlacement)
	if err != nil {
		return nil, err
	}
	for _, tr := range trs {
		defer tr.Close()
	}
	const ops = 2000
	const timeout = 5 * time.Second
	reads := make([]time.Duration, 0, ops)
	writes := make([]time.Duration, 0, ops)
	for i := 0; i < ops; i++ {
		reg := core.RegisterID(i % 64)
		tr := trs[i%len(trs)]
		// Writes enter at the key's primary, as the client routes them.
		primary := trs[0]
		for _, cand := range trs {
			if cand.ID() == tr.Placement().Group(reg)[0] {
				primary = cand
			}
		}
		t := time.Now()
		if _, err := primary.WriteKey(reg, core.Value(i), timeout); err != nil {
			return nil, fmt.Errorf("layers: in-process write: %w", err)
		}
		writes = append(writes, time.Since(t))
		t = time.Now()
		if _, err := tr.ReadKey(reg, timeout); err != nil {
			return nil, fmt.Errorf("layers: in-process read: %w", err)
		}
		reads = append(reads, time.Since(t))
	}
	return []Metric{
		{"nodeops.read_p50_us", p50us(reads), "us"},
		{"nodeops.write_p50_us", p50us(writes), "us"},
	}, nil
}

// newSystem builds a sharded dynsys system of n bootstrap processes.
func newSystem(factory core.NodeFactory, n int, seed uint64) (*dynsys.System, error) {
	return dynsys.New(dynsys.Config{
		N: n, Delta: delta, Model: netsim.SynchronousModel{Delta: delta},
		Factory: factory, Seed: seed, Placement: refPlacement,
	})
}

// invoke starts a read or write of reg at process id, runs the system
// until it returns, and hands the result to done.
func invoke(sys *dynsys.System, id core.ProcessID, reg core.RegisterID, write bool, done func(core.VersionedValue)) error {
	node := sys.Node(id).(*shard.Node)
	returned := false
	finish := func(v core.VersionedValue) {
		returned = true
		if done != nil {
			done(v)
		}
	}
	var err error
	if write {
		err = node.WriteKeySN(reg, 42, finish)
	} else {
		err = node.ReadKey(reg, finish)
	}
	if err != nil {
		return fmt.Errorf("layers: simulated operation at %v: %w", id, err)
	}
	if err := sys.RunFor(20 * delta); err != nil {
		return err
	}
	if !returned {
		return fmt.Errorf("layers: simulated operation at %v never returned", id)
	}
	return nil
}

// sentDuring returns how many messages the network carried while f ran.
func sentDuring(sys *dynsys.System, f func() error) (float64, error) {
	before := sys.Network().Stats().Sent
	if err := f(); err != nil {
		return 0, err
	}
	return float64(sys.Network().Stats().Sent - before), nil
}

// Counts reports messages and rounds per operation under the seeded
// simulator. Nothing here depends on the wall clock, so two runs give the
// same numbers, and a later change may rest a claim on them.
func Counts() ([]Metric, error) {
	const reg = core.RegisterID(7)

	abdSys, err := newSystem(shard.Factory(abd.Factory()), members, 1)
	if err != nil {
		return nil, err
	}
	owner := abdSys.Placement().Group(reg)[0]
	abdWrite, err := sentDuring(abdSys, func() error { return invoke(abdSys, owner, reg, true, nil) })
	if err != nil {
		return nil, err
	}
	abdRead, err := sentDuring(abdSys, func() error { return invoke(abdSys, owner, reg, false, nil) })
	if err != nil {
		return nil, err
	}
	// Rounds per read under contention: every read is started one tick
	// after a write to the same key, so some quorums disagree and pay the
	// write-back round. The seeded scheduler fixes which.
	const contended = 64
	ids := abdSys.ActiveIDs()
	for i := 0; i < contended; i++ {
		if err := abdSys.Node(owner).(*shard.Node).WriteKeySN(reg, core.Value(100+i), nil); err != nil {
			return nil, err
		}
		if err := abdSys.RunFor(1); err != nil {
			return nil, err
		}
		if err := invoke(abdSys, ids[i%len(ids)], reg, false, nil); err != nil {
			return nil, err
		}
	}
	var fast, slow uint64
	abdSys.ForEachNode(func(_ core.ProcessID, n core.Node) {
		f, s := n.(core.ReadPathCounter).ReadPathCounts()
		fast, slow = fast+f, slow+s
	})

	syncSys, err := newSystem(shard.Factory(syncreg.Factory(syncreg.Options{})), members, 1)
	if err != nil {
		return nil, err
	}
	syncOwner := syncSys.Placement().Group(reg)[0]
	syncWrite, err := sentDuring(syncSys, func() error { return invoke(syncSys, syncOwner, reg, true, nil) })
	if err != nil {
		return nil, err
	}
	syncJoin, err := sentDuring(syncSys, func() error {
		_, node := syncSys.Spawn()
		if err := syncSys.RunFor(20 * delta); err != nil {
			return err
		}
		if !node.Active() {
			return fmt.Errorf("layers: simulated join never completed")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A read entered at a process that does not replicate the key: the
	// FORWARD relay on top of the read itself.
	fwdSys, err := newSystem(shard.Factory(abd.Factory()), members+1, 1)
	if err != nil {
		return nil, err
	}
	group := fwdSys.Placement().Group(reg)
	var outsider core.ProcessID
	for _, id := range fwdSys.ActiveIDs() {
		if !fwdSys.Placement().IsReplica(reg, id) {
			outsider = id
		}
	}
	if outsider == core.NoProcess {
		return nil, fmt.Errorf("layers: every process replicates %v (group %v)", reg, group)
	}
	forwarded, err := sentDuring(fwdSys, func() error { return invoke(fwdSys, outsider, reg, false, nil) })
	if err != nil {
		return nil, err
	}

	return []Metric{
		{"abd.msgs_per_read", abdRead, "count"},
		{"abd.msgs_per_write", abdWrite, "count"},
		{"abd.rounds_per_read", 1 + float64(slow)/float64(fast+slow), "count"},
		{"syncreg.msgs_per_write", syncWrite, "count"},
		{"syncreg.msgs_per_join", syncJoin, "count"},
		{"shard.msgs_per_forwarded_read", forwarded, "count"},
	}, nil
}
