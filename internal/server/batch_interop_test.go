package server_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encoding/binary"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/faultnet"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// snoopConn records every byte the wrapped connection delivers to Read, so a
// test can assert on the raw frames a client actually received — which
// message types arrived, and whether they were packed.
type snoopConn struct {
	net.Conn
	mu  sync.Mutex
	buf []byte
}

func (s *snoopConn) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.mu.Lock()
		s.buf = append(s.buf, p[:n]...)
		s.mu.Unlock()
	}
	return n, err
}

// rawFrameTypes parses the recorded server-to-client byte stream into the
// raw u16 type field of each complete frame, capability flag bits included
// (frame layout: [u32 length][u16 type|flags]...).
func (s *snoopConn) rawFrameTypes(t *testing.T) []uint16 {
	t.Helper()
	s.mu.Lock()
	data := append([]byte(nil), s.buf...)
	s.mu.Unlock()
	var types []uint16
	for len(data) >= 4 {
		n := binary.LittleEndian.Uint32(data)
		if len(data) < 4+int(n) {
			break // trailing partial frame still in flight
		}
		if n < 2 {
			t.Fatalf("recorded frame with %d-byte body", n)
		}
		types = append(types, binary.LittleEndian.Uint16(data[4:]))
		data = data[4+int(n):]
	}
	return types
}

// dialSnooped is harness.dial with the server side wrapped in a fault
// injector and the client side wrapped in a byte recorder. The batch opt-in
// is taken verbatim from copts: interop tests need a client that is
// genuinely legacy.
func (h *harness) dialSnooped(appType, user, spec string, copts client.Options) (*client.Client, *faultnet.Conn, *snoopConn) {
	h.t.Helper()
	reg := widget.NewRegistry()
	if spec != "" {
		widget.MustBuild(reg, "/", spec)
	}
	link := netsim.NewLink(0)
	fc := faultnet.Wrap(link.B, faultnet.Schedule{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(fc))
	}()
	snoop := &snoopConn{Conn: link.A}
	copts.AppType = appType
	copts.User = user
	copts.Host = "testhost"
	copts.Registry = reg
	if copts.RPCTimeout == 0 {
		copts.RPCTimeout = 5 * time.Second
	}
	c, err := client.New(snoop, copts)
	if err != nil {
		h.t.Fatalf("dial %s: %v", appType, err)
	}
	h.t.Cleanup(c.Close)
	h.t.Cleanup(func() { fc.Close() })
	h.onTeardown()
	return c, fc, snoop
}

// TestBatchInteropLegacyPeerInMixedGroup puts one legacy client in a
// three-member coupling group on a batching server: the batch-aware member
// must receive its backlog as packed Batch frames while the legacy member
// keeps receiving plain singles (and never even sees the capability bit),
// and the event must resolve for everyone.
func TestBatchInteropLegacyPeerInMixedGroup(t *testing.T) {
	h := newHarness(t, server.Options{BatchLimit: 8})
	spec := `textfield note value=""`
	a, _, _ := h.dialSnooped("editor", "alice", spec, client.Options{Batching: true})
	b, bFault, bSnoop := h.dialSnooped("editor", "bob", spec, client.Options{Batching: true})
	c, _, cSnoop := h.dialSnooped("editor", "carol", spec, client.Options{}) // legacy: no opt-in

	var carolCommands atomic.Int32
	c.OnCommand("filler", func(couple.InstanceID, []byte) { carolCommands.Add(1) })

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, c.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", c.Ref("/note")))
	waitFor(t, "group mirrored", func() bool {
		return a.Coupled("/note") && b.Coupled("/note") && c.Coupled("/note")
	})

	// Wedge bob's connection, then generate an event plus filler broadcasts:
	// his SetLocks, Exec and CommandDelivers pile up behind the blocked
	// writer, so restoring the link flushes a multi-envelope backlog — which
	// for a batch-aware peer means packed frames.
	bFault.Hang()
	const filler = 4
	dispatch(t, a, "/note", "batched")
	for i := 0; i < filler; i++ {
		mustOK(t, a.SendCommand("filler", nil))
	}
	// Carol's copies arriving proves the state loop has queued bob's too.
	waitFor(t, "legacy member applies the event", func() bool {
		return attrOf(t, c, "/note", widget.AttrValue).AsString() == "batched"
	})
	waitFor(t, "legacy member got the filler", func() bool {
		return carolCommands.Load() == filler
	})
	bFault.Restore()

	waitFor(t, "batching member applies the event", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "batched"
	})
	waitFor(t, "event resolves", func() bool { return h.srv.Stats().PendingEvents == 0 })
	waitFor(t, "group unlocked", func() bool {
		return !disabled(t, b, "/note") && !disabled(t, c, "/note")
	})

	sawBatch := false
	for _, raw := range bSnoop.rawFrameTypes(t) {
		if wire.Type(raw&^0xc000) == wire.TBatch {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Error("batch-aware member never received a Batch frame")
	}
	for _, raw := range cSnoop.rawFrameTypes(t) {
		if wire.Type(raw&^0xc000) == wire.TBatch {
			t.Fatalf("legacy member received a Batch frame (raw type %#x)", raw)
		}
		if raw&0x4000 != 0 {
			t.Fatalf("frame to legacy member advertises the batch bit (raw type %#x)", raw)
		}
	}
	if st := h.srv.Stats(); st.BatchSize.Count == 0 {
		t.Errorf("server.batch_size recorded no packed frames")
	}

	// The mixed group keeps working both ways after the packed flush.
	dispatch(t, c, "/note", "from-legacy")
	waitFor(t, "legacy-origin event converges", func() bool {
		return attrOf(t, a, "/note", widget.AttrValue).AsString() == "from-legacy" &&
			attrOf(t, b, "/note", widget.AttrValue).AsString() == "from-legacy"
	})
}
