package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealIsZeroSizeAndTicks(t *testing.T) {
	c := Or(nil)
	if _, ok := c.(Real); !ok {
		t.Fatalf("Or(nil) = %T, want Real", c)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.Now() }); n != 0 {
		t.Errorf("Real.Now allocates %v times", n)
	}
	tk := c.NewTicker(time.Millisecond)
	<-tk.C()
	tk.Stop()
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	<-fired
	if c.AfterFunc(time.Hour, func() {}).Stop() != true {
		t.Error("stopping an armed Real timer reported false")
	}
}

func TestManualNowMovesOnlyOnAdvance(t *testing.T) {
	m := NewManual()
	if !m.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", m.Now(), Epoch)
	}
	m.Advance(1500 * time.Millisecond)
	if got := m.Now().Sub(Epoch); got != 1500*time.Millisecond {
		t.Fatalf("advanced %v, want 1.5s", got)
	}
}

// A ticker delivers the latest tick that fell due and drops the ones its
// receiver missed, then keeps its phase.
func TestManualTickerDropsMissedTicks(t *testing.T) {
	m := NewManual()
	tk := m.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	m.Advance(9 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("ticked before its period")
	default:
	}
	m.Advance(36 * time.Millisecond) // due at 10, 20, 30, 40
	if got := (<-tk.C()).Sub(Epoch); got != 40*time.Millisecond {
		t.Fatalf("delivered the tick at %v, want the latest due, 40ms", got)
	}
	select {
	case <-tk.C():
		t.Fatal("delivered a missed tick")
	default:
	}
	m.Advance(4 * time.Millisecond) // 49: not due
	select {
	case <-tk.C():
		t.Fatal("lost its phase")
	default:
	}
	m.Advance(time.Millisecond)
	if got := (<-tk.C()).Sub(Epoch); got != 50*time.Millisecond {
		t.Fatalf("next tick at %v, want 50ms", got)
	}
	tk.Stop()
	m.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("a stopped ticker ticked")
	default:
	}
}

// AfterFuncs run once, on their own goroutines, in the order they fall due,
// each seeing the clock at least at its due time; a stopped one never runs.
func TestManualAfterFunc(t *testing.T) {
	m := NewManual()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for _, d := range []int{30, 10, 20} {
		wg.Add(1)
		m.AfterFunc(time.Duration(d)*time.Millisecond, func() {
			defer wg.Done()
			if m.Now().Sub(Epoch) < time.Duration(d)*time.Millisecond {
				t.Errorf("timer %d ran before its time", d)
			}
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		})
	}
	var ran atomic.Bool
	stopped := m.AfterFunc(15*time.Millisecond, func() { ran.Store(true) })
	if !stopped.Stop() {
		t.Fatal("Stop of an armed timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	if m.Armed() != 3 {
		t.Fatalf("%d armed, want 3", m.Armed())
	}
	m.Advance(30 * time.Millisecond)
	wg.Wait()
	if ran.Load() {
		t.Fatal("a stopped timer ran")
	}
	if len(order) != 3 || m.Armed() != 0 {
		t.Fatalf("ran %v, %d still armed", order, m.Armed())
	}
	now := make(chan struct{})
	m.AfterFunc(0, func() { close(now) })
	<-now // a timer already due runs without an Advance, as time.AfterFunc does
}

// An AfterFunc may arm the next timer, and the test waits until it has before
// advancing again.
func TestManualBlockUntil(t *testing.T) {
	m := NewManual()
	hops := make(chan int, 3)
	var hop func(n int) func()
	hop = func(n int) func() {
		return func() {
			hops <- n
			if n < 3 {
				m.AfterFunc(time.Second, hop(n+1))
			}
		}
	}
	m.AfterFunc(time.Second, hop(1))
	for want := 1; want <= 3; want++ {
		m.BlockUntil(1)
		m.Advance(time.Second)
		if got := <-hops; got != want {
			t.Fatalf("hop %d ran, want %d", got, want)
		}
	}
	m.Advance(time.Hour)
	select {
	case n := <-hops:
		t.Fatalf("hop %d ran after the last", n)
	default:
	}
}

// Tickers, timers and Advance from many goroutines at once (run with -race).
func TestManualConcurrentUse(t *testing.T) {
	m := NewManual()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := m.NewTicker(time.Millisecond)
			defer tk.Stop()
			for j := 0; j < 50; j++ {
				tm := m.AfterFunc(time.Duration(j%3)*time.Millisecond, func() {})
				if j%2 == 0 {
					tm.Stop()
				}
				select {
				case <-tk.C():
				default:
				}
				_ = m.Now()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		m.Advance(time.Millisecond)
	}
	wg.Wait()
	m.Advance(time.Second)
	if m.Armed() != 0 {
		t.Fatalf("%d timers still armed after every ticker stopped", m.Armed())
	}
}
