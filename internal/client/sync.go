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

// handleLocalEvent is the toolkit interception hook: it dispatches the event
// through DispatchChecked and logs what went wrong — at Warn when the round
// trip to the server failed, at Debug when the event was rejected or failed
// locally.
func (c *Client) handleLocalEvent(e *widget.Event) {
	err := c.DispatchChecked(e)
	if err == nil {
		return
	}
	log := c.slog.Debug
	if errors.As(err, new(roundTripError)) {
		log = c.slog.Warn
	}
	log("event failed", "path", e.Path, "event", e.Name, "error", err.Error())
}

// roundTripError marks a DispatchChecked failure of the round trip itself,
// as opposed to a rejection or a local failure.
type roundTripError struct{ error }

func (e roundTripError) Unwrap() error { return e.error }

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

// DispatchChecked implements the origin side of the multiple-execution
// algorithm (§3.2) and reports how it ended: callers that need to
// distinguish "executed" from "group was locked" (benchmarks, tests) call it
// directly, and the toolkit hook calls it for every local event.
//
// An uncoupled object behaves exactly as in the single-user toolkit. On a
// coupled one the event's built-in ("syntactic") feedback is applied
// immediately so the user sees an instant response; the event is then
// offered to the server, which locks the coupling group and broadcasts it.
// If the lock fails, the feedback is undone — "undo syntactic built-in
// feedback of the event e" — and the error wraps ErrRejected. Once accepted,
// the application callbacks run locally, exactly as the coupled instances
// will run them when they receive the Exec broadcast.
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
		return roundTripError{err}
	}
	if !res.OK {
		undo()
		return fmt.Errorf("%w: %s", ErrRejected, res.Reason)
	}
	c.reg.RunCallbacks(e)
	return nil
}

// applyExec re-executes a remote event on the local member of the coupling
// group: "this event packed with some parameters is sent to the server.
// Then the server broadcasts this message to the application instances where
// it is unpacked and re-executed" (§3.2). It returns the acknowledgement the
// caller owes the server, carrying the apply-span context so the server's
// ack point descends from the re-execution; dispatchLoop must send it so the
// group unlocks.
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
