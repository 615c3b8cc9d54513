//go:build linux

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// awakeEnv marks a child of the benchmark whose only job is to keep one
// processor from going idle.
const awakeEnv = "BENCH_KEEP_AWAKE"

// keepAwake starts, for every processor, a child process that spins at
// idle priority (SCHED_IDLE: it runs only when nothing else wants the
// processor and yields to anything that does), and returns a function
// that ends them.
//
// The benchmark runs on a virtual machine. A virtual processor with
// nothing to do is halted and handed back to the host, and getting it
// back takes 50 to 100µs — a time that depends on what the host is doing
// and on what the machine did in the last half minute, and that an open
// loop pays several times per operation because everything sleeps between
// operations. Left alone it is a third of steady's read latency and its
// spread over ten runs is 20% of the median; with the processors kept
// awake the spread of sync_churn's read latency falls from 21% to 4.5%.
// What is measured is the register, not the hypervisor's idle path;
// bench/README.md, "Keeping the processors awake", has the numbers.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill() // it may have exited already
			_ = cmd.Wait()         // killed: the exit status says nothing
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), awakeEnv+"=1")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		ready, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("starting a spinner: %w", err)
		}
		cmds = append(cmds, cmd)
		// The child writes one byte once it runs at idle priority; a
		// spinner at normal priority would take a processor from the
		// servers, so without the byte there is no run.
		if _, err := io.ReadFull(ready, make([]byte, 1)); err != nil {
			stop()
			return nil, fmt.Errorf("a spinner did not reach idle priority: %w", err)
		}
	}
	return stop, nil
}

// spin is the whole life of a child started by keepAwake: drop to idle
// priority, say so, and spin until killed.
func spin() {
	// The scheduling class belongs to the thread.
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE, linux/sched.h
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	if _, err := os.Stdout.Write([]byte{1}); err != nil {
		os.Exit(1)
	}
	for {
	}
}
