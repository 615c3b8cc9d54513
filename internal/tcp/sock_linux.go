package tcp

import (
	"os"
	"syscall"
)

// The keep-alive options' names on Linux.
const (
	tcpKeepIdle  = syscall.TCP_KEEPIDLE
	tcpKeepIntvl = syscall.TCP_KEEPINTVL
	tcpKeepCnt   = syscall.TCP_KEEPCNT
)

// socket makes a non-blocking TCP socket, closed on exec from its making.
func socket(family int) (int, error) {
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	return fd, nil
}

// accept takes a connection off listener fd's queue, non-blocking and
// closed on exec from its making. Its error is the bare errno.
func accept(fd int) (int, syscall.Sockaddr, error) {
	return syscall.Accept4(fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
}
