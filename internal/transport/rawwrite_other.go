//go:build !unix

package transport

// nonblockingWrite takes nothing where no non-blocking socket write is
// wired up: every frame goes to the link's writer goroutine.
func nonblockingWrite(fd uintptr, b []byte) int { return 0 }
