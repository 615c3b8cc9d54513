package tcp

import (
	"os"
	"syscall"
)

// The keep-alive options' numbers on macOS, where TCP_KEEPALIVE is the
// idle time; package net spells the last two out as well.
const (
	tcpKeepIdle  = syscall.TCP_KEEPALIVE
	tcpKeepIntvl = 0x101
	tcpKeepCnt   = 0x102
)

// socket makes a non-blocking TCP socket, closed on exec. macOS has no
// SOCK_CLOEXEC: syscall.ForkLock keeps a fork from copying the socket
// before it is marked, as package net does.
func socket(family int) (int, error) {
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, os.NewSyscallError("setnonblock", err)
	}
	return fd, nil
}

// accept takes a connection off listener fd's queue, non-blocking and
// closed on exec (under syscall.ForkLock: macOS has no accept4). Its
// error is the bare errno.
func accept(fd int) (int, syscall.Sockaddr, error) {
	syscall.ForkLock.RLock()
	nfd, sa, err := syscall.Accept(fd)
	if err == nil {
		syscall.CloseOnExec(nfd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, nil, err
	}
	if err := syscall.SetNonblock(nfd, true); err != nil {
		syscall.Close(nfd)
		return -1, nil, err
	}
	return nfd, sa, nil
}
