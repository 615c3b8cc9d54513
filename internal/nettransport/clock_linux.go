package nettransport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clock is the timer heap's wake source on Linux: a timerfd on
// CLOCK_MONOTONIC, the clock time.Now's monotonic reading comes from, read
// through the runtime's netpoller, so an expiry wakes its reader at kernel
// precision. A Go timer fires when the idle runtime's epoll_wait times out,
// and that time-out is in whole milliseconds: every δ would be up to 1 ms
// late.
type clock struct {
	f   *os.File
	fd  int     // f's descriptor, for arm: File.Fd would make f blocking
	buf [8]byte // the expiration count a read returns
}

func newClock() (clock, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return clock{}, os.NewSyscallError("timerfd_create", errno)
	}
	return clock{f: os.NewFile(fd, "timerfd"), fd: int(fd)}, nil
}

// arm sets the one expiry d from now, replacing the last. The caller holds
// the monitor and the transport has not halted, so the descriptor is open:
// close runs after halted is set. Neither error timerfd_settime can return
// (EBADF, EINVAL) can then occur.
func (c *clock) arm(d time.Duration) {
	// it_interval zero: one-shot. A zero it_value would disarm it instead.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(max(d, 1)))}
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(c.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait parks in the netpoller until the armed expiry; false once closed.
func (c *clock) wait() bool {
	_, err := c.f.Read(c.buf[:])
	return err == nil
}

// close wakes a waiter, for good.
func (c *clock) close() { c.f.Close() }
