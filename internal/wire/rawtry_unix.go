//go:build unix

package wire

import (
	"errors"
	"syscall"
)

// rawWriter attempts writes on a socket's file descriptor. Go's sockets are
// non-blocking underneath, so one write(2) takes what the kernel buffer has
// room for and reports EAGAIN for the rest. Its fields carry one call's
// buffer and result through fn, which is bound once, so an attempt
// allocates nothing; the Conn's wmu serializes the calls.
type rawWriter struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	buf []byte
	n   int
	err error
}

// rawTryWriter returns a TryWriter on sc's file descriptor, or nil when sc
// does not expose one.
func rawTryWriter(sc syscall.Conn) TryWriter {
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &rawWriter{rc: rc}
	w.fn = w.write
	return w
}

// write makes the one write(2) of an attempt; returning true tells the
// runtime not to wait for the socket to become writable.
func (w *rawWriter) write(fd uintptr) bool {
	w.n, w.err = syscall.Write(int(fd), w.buf)
	return true
}

func (w *rawWriter) TryWrite(p []byte) (int, error) {
	w.buf = p
	err := w.rc.Write(w.fn)
	n, werr := w.n, w.err
	w.buf, w.err = nil, nil
	if err != nil {
		return 0, err
	}
	if errors.Is(werr, syscall.EAGAIN) || errors.Is(werr, syscall.EINTR) {
		werr = nil
	}
	return max(n, 0), werr
}
