//go:build unix

package transport

import "syscall"

// nonblockingWrite writes b to fd, a socket in non-blocking mode, and
// returns how many bytes the kernel took: 0 on any error, a full socket
// buffer (EAGAIN) among them.
func nonblockingWrite(fd uintptr, b []byte) int {
	n, err := syscall.Write(int(fd), b)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
