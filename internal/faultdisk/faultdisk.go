// Package faultdisk is a file system for the event log (it satisfies
// eventlog.FS) that passes every operation through to a real directory and
// injects the faults a disk produces, on command: one failed operation
// (ENOSPC, EIO, or a write torn after some bytes), a crash after which
// nothing more reaches the directory, and a held operation that waits until
// it is released. Reads are not its business: the log reads with os, so it
// sees exactly the bytes that got through.
//
// Operations are counted in two classes, each from 1 since the last Arm:
// the writes and fsyncs of segment files (*.seg), and everything else the
// log does to its directory — snapshot-file writes and fsyncs, renames,
// removes and directory fsyncs. Opening, truncating and closing a file are
// not counted. Counting the classes apart keeps the numbering of an
// append-path sweep independent of snapshots, and the reverse.
package faultdisk

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
)

// File is an open file of the disk. It is an alias of the same interface
// eventlog.File aliases, so *Disk satisfies eventlog.FS without this package
// importing the log.
type File = interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// Class selects the counter an operation is counted by.
type Class int

const (
	// Segment: writes and fsyncs of segment files.
	Segment Class = iota
	// Dir: every other counted operation.
	Dir
)

// Op names one kind of operation, for a Hold.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpRename
	OpRemove
	OpSyncDir
	// The operations from OpOpen on are not counted.
	OpOpen
	OpTruncate
	OpClose
)

// ErrCrashed is what every operation after a crash returns.
var ErrCrashed = errors.New("faultdisk: crashed")

// Fault is one armed failure.
type Fault struct {
	Class Class
	// At is the counted operation of Class, from 1 after Arm, that fails.
	At int
	// Err is what the failed operation reports: syscall.ENOSPC, EIO, ...
	// Nil means EIO, or ErrCrashed for a crash.
	Err error
	// Partial is how many bytes a failed write puts through first.
	Partial int
	// Crash makes every later operation fail with ErrCrashed without
	// touching the directory. Without it, later operations pass through.
	Crash bool
}

// Disk is the fault-injecting file system. The zero value passes everything
// through.
type Disk struct {
	mu      sync.Mutex
	fault   Fault
	ops     int
	fired   bool
	crashed bool
	holds   []*Hold
}

// Arm sets the next fault, replacing any earlier one, and restarts the
// count of its class.
func (d *Disk) Arm(f Fault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault, d.ops, d.fired, d.crashed = f, 0, false, false
}

// Fired reports whether the armed fault has been injected.
func (d *Disk) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// Hold is a set of held operations: each blocks until Release.
type Hold struct {
	class   Class
	op      Op
	reached chan struct{}
	release chan struct{}
	reach   sync.Once
	free    sync.Once
}

// Hold holds every operation op of class c from now until the returned
// hold is released. A held operation counts, and meets the armed fault,
// only once it is let go.
func (d *Disk) Hold(c Class, op Op) *Hold {
	h := &Hold{class: c, op: op, reached: make(chan struct{}), release: make(chan struct{})}
	d.mu.Lock()
	d.holds = append(d.holds, h)
	d.mu.Unlock()
	return h
}

// Reached is closed once an operation has blocked on the hold.
func (h *Hold) Reached() <-chan struct{} { return h.reached }

// Release lets every held operation go, and every later one through.
func (h *Hold) Release() { h.free.Do(func() { close(h.release) }) }

func (h *Hold) released() bool {
	select {
	case <-h.release:
		return true
	default:
		return false
	}
}

// enter is one operation's passage: it waits out a hold on it, counts it,
// and returns the error it must fail with (nil: pass through) and, for the
// failing one, the bytes a write puts through first.
func (d *Disk) enter(c Class, op Op) (partial int, err error) {
	d.mu.Lock()
	for _, h := range d.holds {
		if h.class == c && h.op == op && !h.released() {
			d.mu.Unlock()
			h.reach.Do(func() { close(h.reached) })
			<-h.release
			d.mu.Lock()
		}
	}
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	f := d.fault
	if f.At <= 0 || d.fired || c != f.Class || op >= OpOpen {
		return 0, nil
	}
	if d.ops++; d.ops < f.At {
		return 0, nil
	}
	d.fired, d.crashed = true, f.Crash
	switch {
	case f.Err != nil:
		return f.Partial, f.Err
	case f.Crash:
		return f.Partial, ErrCrashed
	}
	return f.Partial, syscall.EIO
}

func classOf(name string) Class {
	if strings.HasSuffix(name, ".seg") {
		return Segment
	}
	return Dir
}

// do runs fn unless the disk fails op.
func (d *Disk) do(c Class, op Op, fn func() error) error {
	if _, err := d.enter(c, op); err != nil {
		return err
	}
	return fn()
}

// OpenFile opens name through the disk.
func (d *Disk) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	c := classOf(name)
	var f *os.File
	err := d.do(c, OpOpen, func() (err error) {
		f, err = os.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &file{d: d, f: f, class: c}, nil
}

func (d *Disk) Rename(oldpath, newpath string) error {
	return d.do(Dir, OpRename, func() error { return os.Rename(oldpath, newpath) })
}

func (d *Disk) Remove(name string) error {
	return d.do(Dir, OpRemove, func() error { return os.Remove(name) })
}

func (d *Disk) SyncDir(dir string) error {
	return d.do(Dir, OpSyncDir, func() error {
		f, err := os.Open(dir)
		if err != nil {
			return err
		}
		return errors.Join(f.Sync(), f.Close())
	})
}

type file struct {
	d     *Disk
	f     *os.File
	class Class
}

func (f *file) Write(p []byte) (int, error) {
	partial, err := f.d.enter(f.class, OpWrite)
	if err == nil {
		return f.f.Write(p)
	}
	n := 0
	if partial > 0 {
		n, _ = f.f.Write(p[:min(partial, len(p))])
	}
	return n, err
}

func (f *file) Sync() error { return f.d.do(f.class, OpSync, f.f.Sync) }

func (f *file) Truncate(size int64) error {
	return f.d.do(f.class, OpTruncate, func() error { return f.f.Truncate(size) })
}

// Close always releases the descriptor, which changes nothing on disk; a
// crashed close still reports its error.
func (f *file) Close() error {
	_, err := f.d.enter(f.class, OpClose)
	return errors.Join(err, f.f.Close())
}
