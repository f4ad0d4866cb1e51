package cosoft_test

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cosoft"
	"cosoft/internal/wire"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README's
// quickstart does: server over TCP, two clients, couple, type, replicate.
func TestPublicAPIEndToEnd(t *testing.T) {
	srv := cosoft.NewServer(cosoft.ServerOptions{})
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go srv.Serve(lis) //nolint:errcheck

	dial := func(user string) *cosoft.Client {
		reg := cosoft.NewRegistry()
		cosoft.MustBuild(reg, "/", `textfield note value=""`)
		cli, err := cosoft.Dial(lis.Addr().String(), cosoft.ClientOptions{
			AppType: "editor", User: user, Host: "local", Registry: reg,
			RPCTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cli.Close)
		if err := cli.Declare("/note"); err != nil {
			t.Fatal(err)
		}
		return cli
	}
	alice := dial("alice")
	bob := dial("bob")
	if err := alice.Couple("/note", bob.Ref("/note")); err != nil {
		t.Fatal(err)
	}
	if err := alice.Registry().Dispatch(&cosoft.Event{
		Path: "/note", Name: cosoft.EventChanged,
		Args: []cosoft.Value{cosoft.String("hello")},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		w, err := bob.Registry().Lookup("/note")
		if err != nil {
			t.Fatal(err)
		}
		if w.Attr("value").AsString() == "hello" {
			stats := srv.Stats()
			if stats.Events != 1 || stats.Links != 1 {
				t.Errorf("stats = %+v", stats)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replication timed out")
}

func TestDialFailure(t *testing.T) {
	if _, err := cosoft.Dial("127.0.0.1:1", cosoft.ClientOptions{Registry: cosoft.NewRegistry()}); err == nil {
		t.Fatal("dial to closed port must fail")
	}
}

// tapListener hands the server tapConns and the test each of them, in accept
// order.
type tapListener struct {
	net.Listener
	conns chan *tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	tc.cond = sync.NewCond(&tc.mu)
	l.conns <- tc
	return tc, nil
}

// tapConn is the server's end of one client connection. It records the bytes
// the client sent (in) and the bytes the server wrote (out), and while held
// it parks every server write until release.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	cond    *sync.Cond
	held    bool
	parked  int
	in, out []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	for c.held {
		c.parked++
		c.cond.Wait()
		c.parked--
	}
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) hold() {
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
}

func (c *tapConn) release() {
	c.mu.Lock()
	c.held = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *tapConn) streams() (in, out []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.in...), append([]byte(nil), c.out...)
}

// frames decodes a recorded byte stream into its frames, each the records a
// wire.Conn reads from it: one for a single message, the run of a Batch.
func frames(t *testing.T, stream []byte) [][]wire.Envelope {
	t.Helper()
	a, b := net.Pipe()
	go func() {
		a.Write(stream) //nolint:errcheck
		a.Close()
	}()
	c := wire.NewConn(b)
	defer c.Close()
	var out [][]wire.Envelope
	for more := false; ; more = c.Pending() {
		env, err := c.Read()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("recorded stream: %v", err)
		}
		if !more {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], env)
	}
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDialedClientSpeaksPackedFrames holds the client cosoft.Dial ships, with
// no option beyond its identity and registry, to the one wire dialect. Alice
// holds two objects of a group that bob's event locks, and her server end is
// stalled while the event goes out, so both Execs queue up behind one write.
// She must receive them as one packed frame with no lock notice (each Exec
// disables its own target), apply both in one run and answer them with one
// BatchAck.
func TestDialedClientSpeaksPackedFrames(t *testing.T) {
	srv := cosoft.NewServer(cosoft.ServerOptions{})
	// A cleanup, so that it runs after the held tap is released.
	t.Cleanup(srv.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tapListener{Listener: lis, conns: make(chan *tapConn, 2)}
	defer lis.Close()
	go srv.Serve(tl) //nolint:errcheck

	dial := func(user, spec string, paths ...string) (*cosoft.Client, *tapConn) {
		reg := cosoft.NewRegistry()
		cosoft.MustBuild(reg, "/", spec)
		cli, err := cosoft.Dial(lis.Addr().String(), cosoft.ClientOptions{AppType: "editor", User: user, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cli.Close)
		for _, path := range paths {
			if err := cli.Declare(path); err != nil {
				t.Fatal(err)
			}
		}
		return cli, <-tl.conns
	}
	alice, tap := dial("alice", "textfield note value=\"\"\ntextfield copy value=\"\"", "/note", "/copy")
	t.Cleanup(tap.release)
	bob, _ := dial("bob", `textfield note value=""`, "/note")
	for _, path := range []string{"/note", "/copy"} {
		if err := bob.Couple("/note", alice.Ref(path)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "alice's mirror of the group", func() bool { return len(alice.CO("/note")) == 2 && len(alice.CO("/copy")) == 2 })

	// Park the server's next write to alice, so what follows queues behind it.
	tap.hold()
	if err := bob.SendCommand("poke", nil, alice.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a parked write to alice", func() bool {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		return tap.parked == 1
	})
	if err := bob.DispatchChecked(&cosoft.Event{Path: "/note", Name: cosoft.EventChanged,
		Args: []cosoft.Value{cosoft.String("packed")}}); err != nil {
		t.Fatal(err)
	}
	tap.release()
	waitFor(t, "the event to resolve", func() bool {
		for _, path := range []string{"/note", "/copy"} {
			if w, err := alice.Registry().Lookup(path); err != nil || w.Attr("value").AsString() != "packed" {
				return false
			}
		}
		return srv.Stats().PendingEvents == 0
	})

	in, out := tap.streams()
	packed := false
	for _, frame := range frames(t, out) {
		locks, execs := 0, 0
		for _, env := range frame {
			switch m := env.Msg.(type) {
			case wire.SetLocks:
				if m.Locked {
					locks++
				}
			case wire.Exec:
				execs++
			}
		}
		if locks != 0 {
			t.Errorf("alice received %d lock notices in a frame of %d records, want none: an Exec is its own lock notice", locks, len(frame))
		}
		if execs > 0 {
			if packed || execs != 2 {
				t.Errorf("alice received %d Execs in a frame of %d records, want both of the event's Execs in one frame", execs, len(frame))
			}
			packed = true
		}
	}
	if !packed {
		t.Error("alice received no Exec")
	}
	acks := 0
	for _, frame := range frames(t, in) {
		for _, env := range frame {
			switch m := env.Msg.(type) {
			case wire.ExecAck:
				t.Errorf("alice acknowledged event %d with a single ExecAck", m.EventID)
			case wire.BatchAck:
				acks++
				if len(m.Acks) != 2 {
					t.Errorf("alice's BatchAck carries %d acks, want 2", len(m.Acks))
				}
			}
		}
	}
	if acks != 1 {
		t.Errorf("alice sent %d BatchAcks, want 1", acks)
	}
}
