package faultdisk

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func open(t *testing.T, d *Disk, name string) File {
	t.Helper()
	f, err := d.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func contents(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The zero disk passes every operation through.
func TestPassThrough(t *testing.T) {
	dir := t.TempDir()
	d := &Disk{}
	name := filepath.Join(dir, "a.seg")
	f := open(t, d, name)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "b.snap")
	if err := d.Rename(name, moved); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, moved); got != "hell" {
		t.Fatalf("file holds %q, want %q", got, "hell")
	}
	if err := d.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if d.Fired() {
		t.Fatal("an unarmed disk fired")
	}
}

// A fault fails the At-th counted operation of its class only: a torn write
// puts Partial bytes through, and later operations pass, so the writer can
// cut the tear back.
func TestFailAtOp(t *testing.T) {
	dir := t.TempDir()
	d := &Disk{}
	name := filepath.Join(dir, "0.seg")
	f := open(t, d, name)
	defer f.Close()
	d.Arm(Fault{Class: Segment, At: 3, Err: syscall.ENOSPC, Partial: 2})
	// A snapshot-side operation does not advance the segment count.
	if err := d.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ab")); err != nil { // 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // 2
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("cdef")); n != 2 || !errors.Is(err, syscall.ENOSPC) { // 3
		t.Fatalf("the armed write: %d, %v; want 2 bytes and ENOSPC", n, err)
	}
	if !d.Fired() {
		t.Fatal("the fault did not fire")
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("gh")); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, name); got != "abgh" {
		t.Fatalf("file holds %q, want %q", got, "abgh")
	}
}

// A crash tears its operation, and every later one fails with ErrCrashed
// and leaves the directory as the crash found it.
func TestCrashAtOp(t *testing.T) {
	dir := t.TempDir()
	d := &Disk{}
	tmp := filepath.Join(dir, "1.snap.tmp")
	f := open(t, d, tmp)
	d.Arm(Fault{Class: Dir, At: 1, Partial: 3, Crash: true})
	if _, err := f.Write([]byte("snapshot")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("the armed write: %v, want ErrCrashed", err)
	}
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close after the crash: %v, want ErrCrashed", err)
	}
	if err := d.Remove(tmp); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after the crash: %v, want ErrCrashed", err)
	}
	seg := filepath.Join(dir, "0.seg")
	if _, err := d.OpenFile(seg, os.O_WRONLY|os.O_CREATE, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after the crash: %v, want ErrCrashed", err)
	}
	if got := contents(t, tmp); got != "sna" {
		t.Fatalf("torn file holds %q, want %q", got, "sna")
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("a crashed open created its file: %v", err)
	}
	// Arming again brings the disk back.
	d.Arm(Fault{})
	if err := d.Remove(tmp); err != nil {
		t.Fatal(err)
	}
}

// A held operation waits for Release, and counts only once let go.
func TestHold(t *testing.T) {
	dir := t.TempDir()
	d := &Disk{}
	f := open(t, d, filepath.Join(dir, "0.seg"))
	defer f.Close()
	h := d.Hold(Segment, OpWrite)
	done := make(chan error)
	go func() {
		_, err := f.Write([]byte("x"))
		done <- err
	}()
	<-h.Reached()
	// Other operations pass the hold.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("a held write returned %v", err)
	default:
	}
	d.Arm(Fault{Class: Segment, At: 1})
	h.Release()
	if err := <-done; !errors.Is(err, syscall.EIO) {
		t.Fatalf("the released write: %v, want the armed EIO", err)
	}
	h.Release()
	if _, err := f.Write([]byte("y")); err != nil {
		t.Fatalf("a write after the release: %v", err)
	}
}
