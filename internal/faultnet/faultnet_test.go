package faultnet

import (
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"cosoft/internal/netsim"
)

// pipePair returns a faultnet-wrapped side A and the raw side B of an
// in-process pipe.
func pipePair(sched Schedule) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a, sched), b
}

// drain reads everything B receives until the pipe closes.
func drain(t *testing.T, b net.Conn) <-chan []byte {
	t.Helper()
	out := make(chan []byte, 1)
	go func() {
		var got []byte
		buf := make([]byte, 256)
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				out <- got
				return
			}
		}
	}()
	return out
}

func TestDropEveryNth(t *testing.T) {
	fc, b := pipePair(Schedule{DropEveryNth: 2})
	got := drain(t, b)
	for i := 0; i < 6; i++ {
		if _, err := fc.Write([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	fc.Close()
	if s := string(<-got); s != "ace" {
		t.Fatalf("delivered %q, want %q (every 2nd write dropped)", s, "ace")
	}
}

func TestSeededDropIsDeterministic(t *testing.T) {
	run := func() string {
		fc, b := pipePair(Schedule{Seed: 7, DropProb: 0.5})
		got := drain(t, b)
		for i := 0; i < 16; i++ {
			if _, err := fc.Write([]byte{byte('a' + i)}); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		fc.Close()
		return string(<-got)
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("same seed produced different schedules: %q vs %q", first, second)
	}
	if len(first) == 16 || len(first) == 0 {
		t.Fatalf("p=0.5 schedule dropped nothing or everything: %q", first)
	}
}

func TestDuplicate(t *testing.T) {
	fc, b := pipePair(Schedule{Seed: 3, DupProb: 1})
	got := drain(t, b)
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	fc.Close()
	if s := string(<-got); s != "xx" {
		t.Fatalf("delivered %q, want duplicated %q", s, "xx")
	}
}

func TestBlackholeDiscardsWritesAndStarvesReads(t *testing.T) {
	fc, b := pipePair(Schedule{})
	got := drain(t, b)
	fc.Blackhole()
	if _, err := fc.Write([]byte("lost")); err != nil {
		t.Fatalf("blackholed write must report success, got %v", err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("read completed during blackhole: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Peer data sent during the partition is delivered after Restore.
	go b.Write([]byte("z"))
	fc.Restore()
	if err := <-readDone; err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	fc.Close()
	if s := string(<-got); s != "" {
		t.Fatalf("blackholed bytes leaked through: %q", s)
	}
}

func TestHangBlocksWritesUntilRestore(t *testing.T) {
	fc, b := pipePair(Schedule{})
	got := drain(t, b)
	fc.Hang()
	wrote := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("late"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed while hung: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fc.Restore()
	if err := <-wrote; err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	fc.Close()
	if s := string(<-got); s != "late" {
		t.Fatalf("delivered %q after restore, want %q", s, "late")
	}
}

func TestCloseReleasesHungCallers(t *testing.T) {
	fc, _ := pipePair(Schedule{})
	fc.Hang()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := fc.Read(make([]byte, 1)); err == nil {
			t.Error("hung read returned nil error after close")
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := fc.Write([]byte("x")); err == nil {
			t.Error("hung write returned nil error after close")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	fc.Close()
	wg.Wait()
}

func TestDelayStillDelivers(t *testing.T) {
	fc, b := pipePair(Schedule{Seed: 1, Delay: time.Millisecond, Jitter: time.Millisecond})
	got := drain(t, b)
	for i := 0; i < 3; i++ {
		if _, err := fc.Write([]byte{byte('0' + i)}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	fc.Close()
	if s := string(<-got); s != "012" {
		t.Fatalf("delayed delivery reordered or lost data: %q", s)
	}
}

func TestReadPassesThroughEOF(t *testing.T) {
	fc, b := pipePair(Schedule{})
	b.Close()
	if _, err := fc.Read(make([]byte, 1)); err != io.EOF && err != io.ErrClosedPipe {
		t.Fatalf("read after peer close: %v", err)
	}
}

// TestTryWriteFollowsTheSchedule: over an inner connection that can be
// attempted, attempts and Writes share one per-write schedule — every second
// write is dropped, whichever way it came — while a hung connection's attempt
// takes nothing and leaves the schedule unjudged, and no SyscallConn lets an
// attempt's bytes past it. Over an inner connection that cannot be attempted,
// or a schedule that delays writes, NetConn offers no TryWrite at all, so a
// wire.Conn writes it as it would write the inner connection.
func TestTryWriteFollowsTheSchedule(t *testing.T) {
	l := netsim.NewLink(0)
	fc := Wrap(l.A, Schedule{DropEveryNth: 2})
	tc, ok := fc.NetConn().(tryWriter)
	if !ok {
		t.Fatal("NetConn over a netsim link offers no TryWrite")
	}
	got := drain(t, l.B)
	for i := 0; i < 6; i++ {
		write := fc.Write
		if i%2 == 0 {
			write = tc.TryWrite
		}
		if n, err := write([]byte{byte('a' + i)}); n != 1 || err != nil {
			t.Fatalf("write %d: %d, %v", i, n, err)
		}
	}
	fc.Hang()
	if n, err := tc.TryWrite([]byte("h")); n != 0 || err != nil {
		t.Fatalf("attempt on a hung connection took %d bytes (%v), want none", n, err)
	}
	fc.Restore()
	if fc.Writes() != 6 {
		t.Fatalf("schedule judged %d writes, want 6 (the hung attempt unjudged)", fc.Writes())
	}
	if _, ok := tc.(syscall.Conn); ok {
		t.Fatal("faultnet's attempted connection offers SyscallConn")
	}
	fc.Close()
	if s := string(<-got); s != "ace" {
		t.Fatalf("delivered %q, want %q (every 2nd write dropped)", s, "ace")
	}
	pc, _ := pipePair(Schedule{})
	defer pc.Close()
	if _, ok := pc.NetConn().(tryWriter); ok {
		t.Fatal("NetConn over net.Pipe offers a TryWrite")
	}
	dl := netsim.NewLink(0)
	defer dl.A.Close()
	if _, ok := Wrap(dl.A, Schedule{Delay: time.Millisecond}).NetConn().(tryWriter); ok {
		t.Fatal("NetConn of a delaying schedule offers a TryWrite")
	}
}
