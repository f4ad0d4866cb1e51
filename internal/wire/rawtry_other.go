//go:build !unix

package wire

import "syscall"

// rawTryWriter offers no attempts on descriptors outside unix; a Conn there
// attempts only through a transport's own TryWrite.
func rawTryWriter(syscall.Conn) TryWriter { return nil }
