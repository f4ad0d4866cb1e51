package server

import (
	"errors"
	"fmt"

	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/perm"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// fetch tracks one outstanding StateRequest to a client.
type fetch struct {
	target    couple.InstanceID
	requester couple.InstanceID
	onReply   func(state widget.TreeState)
	onFail    func(reason string)
}

// requestState sends a StateRequest to the owner of ref and registers the
// continuation. It runs on the state loop.
func (s *Server) requestState(requester *client, ref couple.ObjectRef, relevantOnly bool,
	onReply func(widget.TreeState), onFail func(string)) {
	s.requestStateOpt(requester, ref, relevantOnly, false, onReply, onFail)
}

// requestStateOpt additionally controls shallow capture.
func (s *Server) requestStateOpt(requester *client, ref couple.ObjectRef, relevantOnly, shallow bool,
	onReply func(widget.TreeState), onFail func(string)) {
	target, ok := s.clientOf(ref.Instance)
	if !ok {
		onFail(fmt.Sprintf("instance %s not connected", ref.Instance))
		return
	}
	s.nextFetchID++
	id := s.nextFetchID
	s.pendingFetch[id] = &fetch{
		target:    ref.Instance,
		requester: requester.id,
		onReply:   onReply,
		onFail:    onFail,
	}
	target.out.send(wire.Envelope{Msg: wire.StateRequest{
		RequestID:    id,
		Path:         ref.Path,
		RelevantOnly: relevantOnly,
		Shallow:      shallow,
	}})
}

// handleStateReply resumes the continuation waiting for this reply.
func (s *Server) handleStateReply(cl *client, m wire.StateReply) {
	f, ok := s.pendingFetch[m.RequestID]
	if !ok || f.target != cl.id {
		return // stale or spoofed reply
	}
	delete(s.pendingFetch, m.RequestID)
	if !m.OK {
		f.onFail(m.Reason)
		return
	}
	f.onReply(m.State)
}

func (s *Server) failFetch(id uint64, f *fetch, reason string) {
	delete(s.pendingFetch, id)
	f.onFail(reason)
}

// handleFetchState serves a client's read of any declared object's state.
func (s *Server) handleFetchState(cl *client, seq uint64, m wire.FetchState) {
	if _, err := s.checkDeclared(m.Ref); err != nil {
		s.reply(cl, seq, err)
		return
	}
	if err := s.checkPerm(cl, m.Ref, perm.RightView); err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.requestState(cl, m.Ref, m.RelevantOnly,
		func(state widget.TreeState) {
			cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.StateReply{OK: true, State: state}})
		},
		func(reason string) {
			cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.StateReply{OK: false, Reason: reason}})
		})
}

// validateCopy checks declarations, permissions and compatibility for a copy
// from -> to requested by cl, returning the attribute mapping to translate
// primitive states across classes (nil when classes are equal).
func (s *Server) validateCopy(cl *client, from, to couple.ObjectRef) (map[string]string, error) {
	classFrom, err := s.checkDeclared(from)
	if err != nil {
		return nil, err
	}
	classTo, err := s.checkDeclared(to)
	if err != nil {
		return nil, err
	}
	if err := s.checkPerm(cl, from, perm.RightView); err != nil {
		return nil, err
	}
	if err := s.checkPerm(cl, to, perm.RightCopy); err != nil {
		return nil, err
	}
	mapping, ok := s.checker.Direct(classFrom, classTo)
	if !ok {
		return nil, fmt.Errorf("server: classes %q and %q are not compatible", classFrom, classTo)
	}
	if classFrom == classTo {
		return nil, nil // identity: pass tree states through untranslated
	}
	return mapping, nil
}

// completeCopy backs up the destination's current state into the historical
// database, then applies the new state at the destination. It implements the
// tail shared by CopyTo, CopyFrom and RemoteCopy.
func (s *Server) completeCopy(cl *client, seq uint64, from, to couple.ObjectRef,
	state widget.TreeState, mapping map[string]string, destructive bool) {
	if mapping != nil {
		if len(state.Children) != 0 {
			s.reply(cl, seq, fmt.Errorf("server: cross-class copy of complex objects is not supported"))
			return
		}
		state = widget.TreeState{
			Class: mustClass(s, to),
			Name:  state.Name,
			Attrs: compat.TranslateState(state.Attrs, mapping),
		}
	}
	s.requestState(cl, to, false,
		func(old widget.TreeState) {
			// The logged CopyTo carries the overwritten state: it is the
			// backup.
			if err := s.commit(s.record(eventlog.KindHist, cl, wire.CopyTo{To: to, State: old})); err != nil {
				s.reply(cl, seq, err)
				return
			}
			target, ok := s.clientOf(to.Instance)
			if !ok {
				s.reply(cl, seq, fmt.Errorf("server: instance %s disconnected", to.Instance))
				return
			}
			target.out.send(wire.Envelope{Msg: wire.ApplyState{
				Path:        to.Path,
				State:       state,
				Origin:      cl.id,
				Destructive: destructive,
			}})
			s.mCopies.Inc()
			s.reply(cl, seq, nil)
		},
		func(reason string) {
			s.reply(cl, seq, fmt.Errorf("server: backing up %s: %s", stateID(to), reason))
		})
}

func mustClass(s *Server, ref couple.ObjectRef) string {
	class, _ := s.st.reg.ObjectClass(ref)
	return class
}

// handleCopyTo implements passive synchronization: the sender pushes its own
// captured state onto the destination ("one person lets another person see
// his or her work", §3.1).
func (s *Server) handleCopyTo(cl *client, seq uint64, m wire.CopyTo) {
	from := couple.ObjectRef{Instance: cl.id, Path: m.FromPath}
	mapping, err := s.validateCopy(cl, from, m.To)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.completeCopy(cl, seq, from, m.To, m.State, mapping, m.Destructive)
}

// handleCopyFrom implements active synchronization: the requester pulls a
// remote object's state onto a local object ("monitoring another person's
// activities", §3.1).
func (s *Server) handleCopyFrom(cl *client, seq uint64, m wire.CopyFrom) {
	to := couple.ObjectRef{Instance: cl.id, Path: m.ToPath}
	mapping, err := s.validateCopy(cl, m.From, to)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.requestStateOpt(cl, m.From, true, m.Shallow,
		func(state widget.TreeState) {
			s.completeCopy(cl, seq, m.From, to, state, mapping, m.Destructive)
		},
		func(reason string) {
			s.reply(cl, seq, fmt.Errorf("server: fetching %s: %s", stateID(m.From), reason))
		})
}

// handleRemoteCopy lets a third instance copy state between two remote
// objects (the RemoteCopy primitive, §3.1).
func (s *Server) handleRemoteCopy(cl *client, seq uint64, m wire.RemoteCopy) {
	mapping, err := s.validateCopy(cl, m.From, m.To)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.requestState(cl, m.From, true,
		func(state widget.TreeState) {
			s.completeCopy(cl, seq, m.From, m.To, state, mapping, m.Destructive)
		},
		func(reason string) {
			s.reply(cl, seq, fmt.Errorf("server: fetching %s: %s", stateID(m.From), reason))
		})
}

// handleUndoRedo restores a historical state of the client's own object.
func (s *Server) handleUndoRedo(cl *client, seq uint64, path string, undo bool) {
	ref := couple.ObjectRef{Instance: cl.id, Path: path}
	if _, err := s.checkDeclared(ref); err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.requestState(cl, ref, false,
		func(current widget.TreeState) {
			snap, err := s.st.walk(undo, ref, current)
			if errors.Is(err, hist.ErrEmpty) {
				s.reply(cl, seq, fmt.Errorf("server: no state to restore for %s", stateID(ref)))
				return
			}
			if err != nil {
				s.reply(cl, seq, err)
				return
			}
			// The logged CopyTo carries the pre-walk current state — the value
			// the walk pushed on the opposite stack — so replaying the walk
			// reproduces both stacks.
			kind := eventlog.KindRedo
			if undo {
				kind = eventlog.KindUndo
			}
			s.logRecord(s.groupRecord(kind, cl, ref, wire.CopyTo{To: ref, State: current}))
			cl.out.send(wire.Envelope{Msg: wire.ApplyState{
				Path:        path,
				State:       snap.State,
				Origin:      snap.Origin,
				Destructive: true,
			}})
			s.reply(cl, seq, nil)
		},
		func(reason string) {
			s.reply(cl, seq, fmt.Errorf("server: reading current state of %s: %s", stateID(ref), reason))
		})
}
