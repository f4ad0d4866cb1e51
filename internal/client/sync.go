package client

import (
	"errors"
	"fmt"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// OriginAttr is the attribute that records which instance caused the last
// remote modification of a widget, when Options.MarkOrigin is set. It is not
// part of any widget class and never travels in relevant-state copies.
const OriginAttr = "_origin"

// handleLocalEvent is the toolkit interception hook: it implements the
// origin side of the multiple-execution algorithm (§3.2).
//
// The event's built-in ("syntactic") feedback is applied immediately so the
// user sees an instant response; the event is then offered to the server,
// which locks the coupling group and broadcasts it. If the lock fails, the
// feedback is undone — "undo syntactic built-in feedback of the event e".
func (c *Client) handleLocalEvent(e *widget.Event) {
	if !c.Coupled(e.Path) {
		// Uncoupled objects behave exactly as in the single-user toolkit.
		if _, err := c.reg.Deliver(e); err != nil {
			c.logf("client %s: local event %s: %v", c.id, e, err)
		}
		return
	}
	undo, err := c.reg.ApplyFeedback(e)
	if err != nil {
		c.logf("client %s: feedback %s: %v", c.id, e, err)
		return
	}
	res, err := c.eventRoundTrip(e)
	if err != nil {
		undo()
		c.logf("client %s: event %s: %v", c.id, e, err)
		return
	}
	if !res.OK {
		undo()
		c.logf("client %s: event %s rejected: %s", c.id, e, res.Reason)
		return
	}
	// Accepted: run the application callbacks locally, exactly as the
	// coupled instances will when they receive the Exec broadcast.
	c.reg.RunCallbacks(e)
}

// eventRoundTrip offers one local event to the server and waits for the
// verdict. It is the root of the event's causal trace: the
// "client.event_send" span covers the full round trip (send → server
// processing → EventResult receipt), and its context rides the Event
// envelope so every downstream hop descends from it.
func (c *Client) eventRoundTrip(e *widget.Event) (wire.EventResult, error) {
	sp := c.tr.StartRoot("client.event_send", string(c.id))
	if sp.Active() {
		sp.SetNote(e.Path + " " + e.Name)
	}
	env, err := c.callCtx(wire.Event{Path: e.Path, Name: e.Name, Args: e.Args}, sp.Context())
	if err != nil {
		sp.EndNote("error: " + err.Error())
		return wire.EventResult{}, err
	}
	res, ok := env.Msg.(wire.EventResult)
	if !ok {
		sp.EndNote("unexpected reply")
		return wire.EventResult{}, fmt.Errorf("client: unexpected reply %s", env.Msg.MsgType())
	}
	if sp.Active() {
		if res.OK {
			sp.EndNote("ok")
		} else {
			sp.EndNote("rejected: " + res.Reason)
			c.slog.Debug("event rejected",
				"path", e.Path, "event", e.Name, "reason", res.Reason,
				"trace", sp.Context().Trace)
		}
	}
	return res, nil
}

// DispatchChecked dispatches a local event like widget.Registry.Dispatch but
// reports rejection: callers that need to distinguish "executed" from
// "group was locked" (benchmarks, tests) use this instead of the hook path.
func (c *Client) DispatchChecked(e *widget.Event) error {
	if !c.Coupled(e.Path) {
		_, err := c.reg.Deliver(e)
		return err
	}
	undo, err := c.reg.ApplyFeedback(e)
	if err != nil {
		return err
	}
	res, err := c.eventRoundTrip(e)
	if err != nil {
		undo()
		return err
	}
	if !res.OK {
		undo()
		return fmt.Errorf("%w: %s", ErrRejected, res.Reason)
	}
	c.reg.RunCallbacks(e)
	return nil
}

// handleExec re-executes a remote event on the local member of the coupling
// group and acknowledges it immediately — the unbatched path.
func (c *Client) handleExec(tc obs.TraceContext, m wire.Exec) {
	c.sendExecAck(c.applyExec(tc, m))
}

// sendExecAck acknowledges a single applied Exec, carrying the apply-span
// context so the server's ack point descends from the re-execution.
func (c *Client) sendExecAck(e wire.BatchAckEntry) {
	if err := c.send(wire.Envelope{Trace: e.Trace, Msg: wire.ExecAck{EventID: e.EventID}}); err != nil {
		c.logf("client %s: exec ack: %v", c.id, err)
	}
}

// applyExec re-executes a remote event on the local member of the coupling
// group: "this event packed with some parameters is sent to the server.
// Then the server broadcasts this message to the application instances where
// it is unpacked and re-executed" (§3.2). It returns the acknowledgement the
// caller owes the server; the caller sends it singly or folds it into a
// coalesced BatchAck, but must send it either way so the group unlocks.
func (c *Client) applyExec(tc obs.TraceContext, m wire.Exec) wire.BatchAckEntry {
	t0 := c.mExec.Start()
	// The re-execution span descends from the server's "server.exec_send"
	// point; its context rides the ExecAck so the server's ack point in turn
	// descends from the re-execution.
	sp := c.tr.StartSpan(tc, "client.exec_apply", string(c.id))
	if sp.Active() {
		sp.SetNote(m.TargetPath + " " + m.Name)
	}
	c.reexecute(&sp, tc.Trace, m)
	sp.End()
	c.mExec.ObserveSince(t0)
	return wire.BatchAckEntry{EventID: m.EventID, Trace: sp.Context()}
}

// reexecute delivers one remote event to the local widget tree. The delivery
// runs application callbacks, so it is guarded like guard's callbacks are — a
// panicking handler must not take down the dispatch loop, and the
// acknowledgement must go out either way so the group unlocks — but as a
// plain deferred call: the happy path allocates the widget.Event the
// callbacks receive and nothing else.
func (c *Client) reexecute(sp *obs.SpanHandle, trace obs.TraceID, m wire.Exec) {
	defer c.recovered("remote event ", m.Name, trace)
	e := &widget.Event{
		Path:   m.TargetPath,
		Name:   m.Name,
		Args:   m.Args,
		Remote: true,
	}
	if _, err := c.reg.Deliver(e); err != nil {
		// The object may be mid-destruction or the classes may disagree on
		// arguments; the event is acknowledged regardless so the group
		// unlocks.
		if !errors.Is(err, widget.ErrNotFound) {
			c.logf("client %s: exec %s: %v", c.id, e, err)
			c.slog.Warn("exec failed",
				"path", m.TargetPath, "event", m.Name, "error", err.Error(),
				"trace", trace)
		}
		sp.SetNote("error")
		return
	}
	c.markOrigin(e.Path, m.Origin.Instance)
	if c.opts.OnRemoteEvent != nil {
		c.opts.OnRemoteEvent(e)
	}
}

// markOrigin stamps the provenance attribute when congruence marking is on.
func (c *Client) markOrigin(path string, origin couple.InstanceID) {
	if !c.opts.MarkOrigin {
		return
	}
	if w, err := c.reg.Lookup(path); err == nil {
		w.SetAttr(OriginAttr, attr.String(string(origin)))
	}
}
