package client

import (
	"errors"
	"fmt"

	"cosoft/internal/attr"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// semanticAttr is the hidden attribute that carries packed application data
// alongside a UI state (§3.1 "Synchronizing semantic state"). It is attached
// by the dominating instance's Store hook and consumed by the dominated
// instance's Load hook; it never appears in widget classes.
const semanticAttr = "_semantic"

// captureState captures a local subtree, attaching semantic payloads for
// every registered path within it. A shallow capture keeps only the object's
// own attributes.
func (c *Client) captureState(path string, relevantOnly, shallow bool) (widget.TreeState, error) {
	ts, err := c.reg.CaptureTree(path, relevantOnly)
	if err != nil {
		return widget.TreeState{}, err
	}
	if shallow {
		ts.Children = nil
	}
	c.attachSemantics(&ts, path)
	return ts, nil
}

func (c *Client) attachSemantics(ts *widget.TreeState, path string) {
	c.mu.Lock()
	s, ok := c.sem[path]
	c.mu.Unlock()
	if ok && s.Store != nil {
		var payload []byte
		var err error
		if !c.guard("semantic store ", path, 0, func() { payload, err = s.Store() }) {
			err = errors.New("store hook panicked")
		}
		if err != nil {
			c.logf("client %s: semantic store for %s: %v", c.id, path, err)
		} else {
			ts.Attrs.Put(semanticAttr, attr.String(string(payload)))
		}
	}
	for i := range ts.Children {
		c.attachSemantics(&ts.Children[i], widget.JoinPath(path, ts.Children[i].Name))
	}
}

// stripSemantics removes and applies semantic payloads from an incoming
// state.
func (c *Client) stripSemantics(ts *widget.TreeState, path string) {
	if v := ts.Attrs.Get(semanticAttr); v.IsValid() {
		ts.Attrs.Delete(semanticAttr)
		c.mu.Lock()
		s, ok := c.sem[path]
		c.mu.Unlock()
		if ok && s.Load != nil {
			var err error
			if !c.guard("semantic load ", path, 0, func() { err = s.Load([]byte(v.AsString())) }) {
				err = errors.New("load hook panicked")
			}
			if err != nil {
				c.logf("client %s: semantic load for %s: %v", c.id, path, err)
			}
		}
	}
	for i := range ts.Children {
		c.stripSemantics(&ts.Children[i], widget.JoinPath(path, ts.Children[i].Name))
	}
}

// handleStateRequest answers the server's read of a local object's state.
func (c *Client) handleStateRequest(m wire.StateRequest) {
	reply := wire.StateReply{RequestID: m.RequestID}
	ts, err := c.captureState(m.Path, m.RelevantOnly, m.Shallow)
	if err != nil {
		reply.Reason = err.Error()
	} else {
		reply.OK = true
		reply.State = ts
	}
	if err := c.send(wire.Envelope{Msg: reply}); err != nil {
		c.logf("client %s: state reply: %v", c.id, err)
	}
}

// handleApplyState lands an incoming UI state on a local object: primitive
// states replace attributes; complex states merge destructively or flexibly
// (§3.3).
func (c *Client) handleApplyState(m wire.ApplyState) {
	state := m.State
	c.stripSemantics(&state, m.Path)
	w, err := c.reg.Lookup(m.Path)
	if err != nil {
		c.logf("client %s: apply state to %s: %v", c.id, m.Path, err)
		return
	}
	switch {
	case len(state.Children) == 0 && len(w.Children()) == 0:
		w.ApplyState(state.Attrs)
	case m.Destructive:
		if _, _, err := compat.DestructiveMerge(c.reg, m.Path, state); err != nil {
			c.logf("client %s: destructive merge into %s: %v", c.id, m.Path, err)
			return
		}
	default:
		if _, _, err := compat.FlexibleMatch(c.reg, m.Path, state); err != nil {
			c.logf("client %s: flexible match into %s: %v", c.id, m.Path, err)
			return
		}
	}
	c.markOrigin(m.Path, m.Origin)
	if c.opts.OnStateApplied != nil {
		c.guard("state-applied callback", "", 0, func() {
			c.opts.OnStateApplied(m.Path, m.Origin)
		})
	}
}

// Declare announces one local widget as couplable.
func (c *Client) Declare(path string) error {
	w, err := c.reg.Lookup(path)
	if err != nil {
		return err
	}
	return c.declare(path, w.Class().Name)
}

// DeclareTree announces a widget and all its descendants as couplable.
func (c *Client) DeclareTree(path string) error {
	return c.reg.Walk(path, func(w *widget.Widget) error {
		return c.declare(w.Path(), w.Class().Name)
	})
}

// declare sends the declaration and records it for replay after a
// reconnect.
func (c *Client) declare(path, class string) error {
	if err := c.callOK(wire.Declare{Path: path, Class: class}); err != nil {
		return err
	}
	c.mu.Lock()
	c.declared[path] = class
	c.mu.Unlock()
	return nil
}

// CopyTo pushes the relevant state of a local object onto a remote object —
// passive synchronization for the receiver ("one person lets another person
// see his or her work", §3.1).
func (c *Client) CopyTo(localPath string, to couple.ObjectRef, destructive bool) error {
	ts, err := c.captureState(localPath, true, false)
	if err != nil {
		return err
	}
	return c.callOK(wire.CopyTo{FromPath: localPath, To: to, State: ts, Destructive: destructive})
}

// copyToShallow pushes only the object's own attributes (no children) —
// used for per-pair initial synchronization when coupling complex objects.
func (c *Client) copyToShallow(localPath string, to couple.ObjectRef) error {
	ts, err := c.captureState(localPath, true, true)
	if err != nil {
		return err
	}
	return c.callOK(wire.CopyTo{FromPath: localPath, To: to, State: ts})
}

// CopyFrom pulls a remote object's relevant state onto a local object —
// active synchronization ("monitoring another person's activities", §3.1).
func (c *Client) CopyFrom(from couple.ObjectRef, localPath string, destructive bool) error {
	return c.callOK(wire.CopyFrom{From: from, ToPath: localPath, Destructive: destructive})
}

// RemoteCopy copies state between two objects of other instances (§3.1).
func (c *Client) RemoteCopy(from, to couple.ObjectRef, destructive bool) error {
	return c.callOK(wire.RemoteCopy{From: from, To: to, Destructive: destructive})
}

// FetchState reads the current state of any declared object (subject to the
// view permission).
func (c *Client) FetchState(ref couple.ObjectRef, relevantOnly bool) (widget.TreeState, error) {
	env, err := c.call(wire.FetchState{Ref: ref, RelevantOnly: relevantOnly})
	if err != nil {
		return widget.TreeState{}, err
	}
	switch m := env.Msg.(type) {
	case wire.StateReply:
		if !m.OK {
			return widget.TreeState{}, errors.New(m.Reason)
		}
		return m.State, nil
	case wire.Err:
		return widget.TreeState{}, errors.New(m.Text)
	default:
		return widget.TreeState{}, fmt.Errorf("client: unexpected reply %s", env.Msg.MsgType())
	}
}

// Undo restores the most recently overwritten historical state of a local
// object.
func (c *Client) Undo(path string) error {
	return c.callOK(wire.Undo{Path: path})
}

// Redo re-applies the most recently undone state of a local object.
func (c *Client) Redo(path string) error {
	return c.callOK(wire.Redo{Path: path})
}
