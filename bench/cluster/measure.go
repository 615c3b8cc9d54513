//go:build linux

package cluster

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. The kernel
// exports them in USER_HZ, which is 100 on every Linux port Go runs on.
const userHz = 100

// CPU returns the user+system CPU time consumed so far by every process
// the cluster ever started: /proc/<pid>/stat for the live ones, the
// rusage collected by wait for the exited ones. The sum never decreases,
// so differences between two calls charge an exited process's last
// stretch to the interval in which it exited.
func (c *Cluster) CPU() (time.Duration, error) {
	c.mu.Lock()
	procs := append(append([]*Proc(nil), c.live...), c.gone...)
	c.mu.Unlock()
	var total time.Duration
	for _, p := range procs {
		select {
		case <-p.exited:
			total += p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
			continue
		default:
		}
		d, err := statCPU(p.Pid())
		if err != nil {
			// The process went away between the check and the read; its
			// rusage is about to be available.
			select {
			case <-p.exited:
				d = p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
			case <-time.After(time.Second):
				return 0, fmt.Errorf("cluster: node %d: %w", p.ID, err)
			}
		}
		total += d
	}
	return total, nil
}

// statFields returns the fields of /proc/<pid>/stat that follow the
// command name: the name (field 2) is parenthesised and may contain
// spaces, so the fixed fields start after the last ')'. Index 0 is the
// state (field 3).
func statFields(pid int) ([]string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	s := string(b)
	return strings.Fields(s[strings.LastIndexByte(s, ')')+1:]), nil
}

// statCPU reads utime+stime (fields 14 and 15) of one process.
func statCPU(pid int) (time.Duration, error) {
	fields, err := statFields(pid)
	if err != nil {
		return 0, err
	}
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat: %q", pid, fields)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat: %q", pid, fields)
	}
	return time.Duration(utime+stime) * (time.Second / userHz), nil
}

// PeakRSS returns the sum, over the live processes, of the peak resident
// set size (VmHWM) in bytes.
func (c *Cluster) PeakRSS() (int64, error) {
	var total int64
	for _, p := range c.Members() {
		kb, err := statusKB(p.Pid(), "VmHWM:")
		if err != nil {
			return 0, fmt.Errorf("cluster: node %d: %w", p.ID, err)
		}
		total += kb << 10
	}
	return total, nil
}

// statusKB reads one "Name:   123 kB" line of /proc/<pid>/status.
func statusKB(pid int, name string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/%d/status", name, pid)
}

// Metrics maps a Prometheus series, labels included (for example
// `regserve_forward_total{op="read"}`), to its value.
type Metrics map[string]float64

func (m Metrics) add(o Metrics) {
	for k, v := range o {
		m[k] += v
	}
}

// FlushWrites is a series Scrape derives: regserve exports the flushed
// frame count and the cumulative frames-per-write ratio but not the write
// count itself, so it is recovered per process as frames ÷ ratio. Summed
// over processes and differenced over an interval it gives the interval's
// own coalescing factor, which the exported ratio (an average since
// process start) cannot.
const FlushWrites = "regserve_transport_flush_writes_total"

// Scrape sums every /metrics series over the live processes and the
// members that departed through Leave. Gauges are summed too; callers
// read the counters.
func (c *Cluster) Scrape() (Metrics, error) {
	c.mu.Lock()
	total := Metrics{}
	total.add(c.departed)
	c.mu.Unlock()
	for _, p := range c.Members() {
		m, err := scrape(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", p.ID, err)
		}
		total.add(m)
	}
	return total, nil
}

// scrape reads one process's /metrics.
func scrape(p *Proc) (Metrics, error) {
	resp, err := httpClient.Get("http://" + p.API + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := Metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metric line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ratio := m["regserve_transport_frames_per_write"]; ratio > 0 {
		m[FlushWrites] = m["regserve_transport_flushed_frames_total"] / ratio
	}
	return m, nil
}
