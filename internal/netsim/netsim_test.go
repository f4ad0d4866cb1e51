package netsim

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"cosoft/internal/clock"
)

// plain returns a link with no latency and no faults on the wall clock.
func plain() *Link { return NewLink(0, nil, Schedule{}) }

// drain reads everything r receives until it reads an error.
func drain(r io.Reader) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(r)
		out <- got
	}()
	return out
}

// blocked reports whether done stays empty for a moment: a caller that has
// not returned.
func blocked[T any](done <-chan T) bool {
	select {
	case <-done:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

func TestRoundTrip(t *testing.T) {
	l := plain()
	defer l.Close()
	msg := []byte("hello over the simulated wire")
	go func() {
		if _, err := l.A.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(l.B, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("got %q", buf)
	}
	// Other direction.
	go l.B.Write([]byte("pong"))
	buf = make([]byte, 4)
	if _, err := io.ReadFull(l.A, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Errorf("got %q", buf)
	}
}

func TestPartialReads(t *testing.T) {
	l := plain()
	defer l.Close()
	go l.A.Write([]byte("abcdef"))
	one := make([]byte, 2)
	var got []byte
	for len(got) < 6 {
		n, err := l.B.Read(one)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, one[:n]...)
	}
	if string(got) != "abcdef" {
		t.Errorf("got %q", got)
	}
}

// TestLatency: a packet is read once the clock has moved its latency past the
// write, and not before; the reader waits on one timer of the clock, which
// the delivery leaves disarmed.
func TestLatency(t *testing.T) {
	const lat = 30 * time.Millisecond
	clk := clock.NewManual()
	l := NewLink(lat, clk, Schedule{})
	defer l.Close()
	if _, err := l.A.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(l.B, make([]byte, 1))
		read <- err
	}()
	clk.BlockUntil(1) // the reader's timer
	clk.Advance(lat - time.Millisecond)
	if !blocked(read) {
		t.Fatal("packet read before its latency had passed")
	}
	clk.Advance(time.Millisecond)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if n := clk.Armed(); n != 0 {
		t.Errorf("%d timers armed after delivery", n)
	}
}

// TestNoTimerWithoutLatency: a link with no latency and no delay arms nothing
// on the clock, so a test that counts a clock.Manual's timers counts only its
// own.
func TestNoTimerWithoutLatency(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(0, clk, Schedule{DupProb: 1})
	defer l.Close()
	go l.B.Write([]byte("ab"))
	if _, err := io.ReadFull(l.A, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if n := clk.Armed(); n != 0 {
		t.Errorf("%d timers armed on a link with no latency", n)
	}
}

func TestCounters(t *testing.T) {
	l := plain()
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 10)
		io.ReadFull(l.B, buf)
	}()
	l.A.Write([]byte("12345"))
	l.A.Write([]byte("67890"))
	<-done
	if msgs, bts := l.AtoB.Messages.Load(), l.AtoB.Bytes.Load(); msgs != 2 || bts != 10 {
		t.Errorf("AtoB = %d msgs, %d bytes", msgs, bts)
	}
	if l.TotalMessages() != 2 || l.TotalBytes() != 10 {
		t.Errorf("totals = %d, %d", l.TotalMessages(), l.TotalBytes())
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	l := plain()
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := l.B.Read(buf)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.A.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader not unblocked")
	}
	if _, err := l.A.Write([]byte("x")); err == nil {
		t.Error("write after close must fail")
	}
	if err := l.A.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestCloseDeliversWhatIsQueued: a peer's bytes written before it closed are
// read, due or not, before io.EOF, so a teardown never waits on the clock.
func TestCloseDeliversWhatIsQueued(t *testing.T) {
	l := NewLink(time.Hour, clock.NewManual(), Schedule{})
	l.A.Write([]byte("bye"))
	l.A.Close()
	if got := <-drain(l.B); string(got) != "bye" {
		t.Fatalf("read %q after the peer closed, want %q", got, "bye")
	}
}

func TestDeadlinesUnsupported(t *testing.T) {
	l := plain()
	defer l.Close()
	if err := l.A.SetDeadline(time.Time{}); err == nil {
		t.Error("deadlines should report unsupported")
	}
	if l.A.LocalAddr().String() != "netsim-a" || l.A.RemoteAddr().String() != "netsim-b" {
		t.Error("addresses wrong")
	}
	if l.A.LocalAddr().Network() != "netsim" {
		t.Error("network wrong")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	l := plain()
	defer l.Close()
	const writers, msgs = 4, 100
	var wg sync.WaitGroup
	received := make(chan int, 1)
	go func() {
		total := 0
		buf := make([]byte, 256)
		for total < writers*msgs {
			n, err := l.B.Read(buf)
			if err != nil {
				break
			}
			total += n
		}
		received <- total
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				l.A.Write([]byte{1})
			}
		}()
	}
	wg.Wait()
	if got := <-received; got != writers*msgs {
		t.Errorf("received %d bytes, want %d", got, writers*msgs)
	}
}

func TestWriteDeadlinesUnsupported(t *testing.T) {
	l := plain()
	defer l.Close()
	if err := l.A.SetReadDeadline(time.Time{}); err == nil {
		t.Error("SetReadDeadline should report unsupported")
	}
	if err := l.A.SetWriteDeadline(time.Time{}); err == nil {
		t.Error("SetWriteDeadline should report unsupported")
	}
}

// TestDuplicate: a duplicated write is queued twice, whole, and counted
// twice.
func TestDuplicate(t *testing.T) {
	l := NewLink(0, nil, Schedule{Seed: 3, DupProb: 1})
	got := drain(l.A)
	if n, err := l.B.Write([]byte("xy")); n != 2 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	l.B.Close()
	if s := string(<-got); s != "xyxy" {
		t.Fatalf("delivered %q, want duplicated %q", s, "xyxy")
	}
	if l.BtoA.Messages.Load() != 2 || l.BtoA.Bytes.Load() != 4 {
		t.Errorf("counted %d messages, %d bytes", l.BtoA.Messages.Load(), l.BtoA.Bytes.Load())
	}
}

// TestSeededDupIsDeterministic: the same seed replays the same schedule.
func TestSeededDupIsDeterministic(t *testing.T) {
	run := func() string {
		l := NewLink(0, nil, Schedule{Seed: 7, DupProb: 0.5})
		got := drain(l.A)
		for i := 0; i < 16; i++ {
			if _, err := l.B.Write([]byte{byte('a' + i)}); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		l.B.Close()
		return string(<-got)
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("same seed produced different schedules: %q vs %q", first, second)
	}
	if len(first) == 16 || len(first) == 32 {
		t.Fatalf("p=0.5 schedule duplicated nothing or everything: %q", first)
	}
}

// TestDelayStillDelivers: delayed and jittered packets are read in write
// order, each once the clock has reached its due time, and the writer never
// waits.
func TestDelayStillDelivers(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(0, clk, Schedule{Seed: 1, Delay: time.Millisecond, Jitter: 5 * time.Millisecond})
	for i := 0; i < 8; i++ {
		if _, err := l.B.Write([]byte{byte('0' + i)}); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	read := make(chan byte, 8)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := l.A.Read(buf); err != nil {
				close(read)
				return
			}
			read <- buf[0]
		}
	}()
	clk.BlockUntil(1)
	if !blocked(read) {
		t.Fatal("a delayed packet was read before the clock moved")
	}
	var got []byte
	for step := 0; len(got) < 8 && step < 1000; step++ {
		clk.Advance(time.Millisecond)
		select {
		case b := <-read:
			got = append(got, b)
		case <-time.After(time.Millisecond):
		}
	}
	l.Close()
	if string(got) != "01234567" {
		t.Fatalf("delayed delivery reordered or lost data: %q", got)
	}
}

// TestBlackholeDiscardsWritesAndStarvesReads: a black-holed end's writes and
// attempts report success and vanish, and what its peer sends is read after
// Restore.
func TestBlackholeDiscardsWritesAndStarvesReads(t *testing.T) {
	l := plain()
	got := drain(l.A)
	l.B.Blackhole()
	if n, err := l.B.Write([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("blackholed write must report success, got %d, %v", n, err)
	}
	if n, err := l.B.TryWrite([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("blackholed attempt must report success, got %d, %v", n, err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := l.B.Read(make([]byte, 1))
		readDone <- err
	}()
	l.A.Write([]byte("z"))
	if !blocked(readDone) {
		t.Fatal("read completed during blackhole")
	}
	l.B.Restore()
	if err := <-readDone; err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	l.B.Close()
	if s := string(<-got); s != "" {
		t.Fatalf("blackholed bytes leaked through: %q", s)
	}
}

// TestHangBlocksWritesUntilRestore: a hung end's attempt takes nothing and
// its Write blocks until Restore, then delivers.
func TestHangBlocksWritesUntilRestore(t *testing.T) {
	l := plain()
	got := drain(l.A)
	l.B.Hang()
	if n, err := l.B.TryWrite([]byte("h")); n != 0 || err != nil {
		t.Fatalf("attempt on a hung end took %d bytes (%v), want none", n, err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := l.B.Write([]byte("late"))
		wrote <- err
	}()
	if !blocked(wrote) {
		t.Fatal("write completed while hung")
	}
	l.B.Restore()
	if err := <-wrote; err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	if n, err := l.B.TryWrite([]byte("!")); n != 1 || err != nil {
		t.Fatalf("attempt after restore: %d, %v", n, err)
	}
	l.B.Close()
	if s := string(<-got); s != "late!" {
		t.Fatalf("delivered %q after restore, want %q", s, "late!")
	}
}

// TestCloseReleasesHungCallers: closing either end releases a hung end's
// blocked read and write with an error.
func TestCloseReleasesHungCallers(t *testing.T) {
	for _, side := range []string{"own", "peer"} {
		t.Run(side, func(t *testing.T) {
			l := plain()
			l.B.Hang()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if _, err := l.B.Read(make([]byte, 1)); err == nil {
					t.Error("hung read returned nil error after close")
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := l.B.Write([]byte("x")); err == nil {
					t.Error("hung write returned nil error after close")
				}
			}()
			time.Sleep(10 * time.Millisecond)
			if side == "own" {
				l.B.Close()
			} else {
				l.A.Close()
			}
			wg.Wait()
		})
	}
}
