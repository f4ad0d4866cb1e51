package server

import (
	"errors"
	"fmt"

	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
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

// requestState sends a StateRequest (shallow: the object's own state only)
// to the owner of ref and registers the continuation. Its caller holds gmu,
// and the continuations run under it too: a reply arrives as a control-plane
// message, and a failure comes from here or from dropClient.
func (s *Server) requestState(requester *client, ref couple.ObjectRef, relevantOnly, shallow bool,
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
	s.gmu.out.send(target, wire.Envelope{Msg: wire.StateRequest{
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
	s.requestState(cl, m.Ref, m.RelevantOnly, false,
		func(state widget.TreeState) {
			s.gmu.out.send(cl, wire.Envelope{RefSeq: seq, Msg: wire.StateReply{OK: true, State: state}})
		},
		func(reason string) {
			s.gmu.out.send(cl, wire.Envelope{RefSeq: seq, Msg: wire.StateReply{OK: false, Reason: reason}})
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

// transfer is what a state transfer's pending entry carries beyond an
// event's: the request to answer once it resolves, why it failed if it
// failed before its state landed, and whether its history record is being
// written (see landTransfer), which the deadline waits out.
type transfer struct {
	cl         *client
	seq        uint64
	err        error
	committing bool
}

// beginTransfer takes the floor of to's group for a state transfer cl asked
// for in request seq, as an event takes its group's: every member of the
// group, to included, is locked under a fresh ID from the event sequence,
// leased like an event's, and the transfer waits on to's instance alone
// until it acknowledges the ApplyState that lands the state (see
// landTransfer). A refused floor is answered like a denied event, "group
// locked" or "a member is resuming", and reports 0. Its caller holds gmu,
// and once it holds the floor must land or fail the transfer on every path.
func (s *Server) beginTransfer(cl *client, seq uint64, to couple.ObjectRef) uint64 {
	members := s.st.graph.Group(to)
	s.ev.lock()
	defer s.ev.unlock()
	id := s.ev.seq + 1
	owner := lock.Owner{Instance: cl.id, Seq: id}
	if verdict := s.lockGroup(obs.TraceContext{}, members, owner); verdict != nil {
		s.reply(cl, seq, errors.New(verdict.(wire.EventResult).Reason))
		return 0
	}
	if err := s.lease(id); err != nil {
		s.locks.UnlockGroup(members, owner)
		s.mLogAppendErrs.Inc()
		s.reply(cl, seq, err)
		return 0
	}
	s.ev.seq = id
	pe := s.ev.newPending(1)
	pe.source, pe.owner, pe.xfer = to, owner, &transfer{cl: cl, seq: seq}
	// The receiver's wait set, under the floor of the whole group.
	pe.plan = newPlan([]couple.ObjectRef{to})
	pe.plan.members = members
	pe.waiting[0], pe.left = 1, 1
	pe.expires = s.opts.Clock.Now().Add(eventDeadline)
	s.ev.pending[id] = pe
	return id
}

// landTransfer lands or fails transfer id once the states it read are in.
// If the transfer still holds its floor, step runs: it commits the
// transfer's history record, which may wait on the log, and the deadline
// passes the transfer over meanwhile. Then the state step returns is sent to
// the receiver, or step's error resolves the transfer, so a committed record
// is always followed by its ApplyState. A transfer resolved before (by the
// deadline, or a departure) has been answered, and step does not run. Its
// caller holds gmu, under which departures resolve transfers.
func (s *Server) landTransfer(id uint64, step func() (wire.ApplyState, error)) {
	s.ev.lock()
	pe, ok := s.ev.pending[id]
	if ok {
		pe.xfer.committing = true
	}
	s.ev.unlock()
	if !ok {
		return
	}
	m, err := step()
	s.ev.lock()
	defer s.ev.unlock()
	if cur, ok := s.ev.pending[id]; !ok || cur != pe {
		return // resolved by an ack sent ahead of the state
	}
	pe.xfer.committing = false
	if err != nil {
		pe.xfer.err = err
		s.finishEvent(id, pe, false)
		return
	}
	target, _ := s.clientOf(pe.source.Instance) // connected: see above
	m.EventID = id
	s.ev.out.send(target, wire.Envelope{Msg: m})
}

// failTransfer resolves transfer id with err, before it has anything to
// commit.
func (s *Server) failTransfer(id uint64, err error) {
	s.landTransfer(id, func() (wire.ApplyState, error) { return wire.ApplyState{}, err })
}

// answerTransfer answers the request of a transfer that just let its floor
// go: OK once its receiver acknowledged the state, the failure otherwise.
// It runs under the event lock, after the unlock, so a caller's next event
// finds the floor free.
func (s *Server) answerTransfer(pe *pendingEvent, timedOut bool) {
	x, to := pe.xfer, pe.source
	err := x.err
	if err == nil && timedOut {
		err = fmt.Errorf("server: %s did not apply the state within the event deadline", stateID(to))
	}
	if _, ok := s.clientOf(to.Instance); !ok && err == nil {
		// The receiver left: its departure resolved the transfer.
		err = fmt.Errorf("server: instance %s disconnected", to.Instance)
	}
	msg := wire.Message(wire.OK{})
	if err != nil {
		msg = wire.Err{Text: err.Error()}
	}
	s.ev.out.send(x.cl, wire.Envelope{RefSeq: x.seq, Msg: msg})
}

// copyState is the one path of every copy: CopyTo is a copy from the
// caller, CopyFrom one to the caller, RemoteCopy one between any two
// objects. It validates the copy, takes the floor of the destination's group
// (see beginTransfer), reads the source's state unless the request carried
// it, backs up the destination's current state into the historical database
// and lands the new one.
func (s *Server) copyState(cl *client, seq uint64, from, to couple.ObjectRef, carried *widget.TreeState, shallow, destructive bool) {
	mapping, err := s.validateCopy(cl, from, to)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	id := s.beginTransfer(cl, seq, to)
	if id == 0 {
		return
	}
	land := func(state widget.TreeState) {
		if mapping != nil {
			if len(state.Children) != 0 {
				s.failTransfer(id, fmt.Errorf("server: cross-class copy of complex objects is not supported"))
				return
			}
			class, _ := s.st.reg.ObjectClass(to)
			state = widget.TreeState{Class: class, Name: state.Name, Attrs: compat.TranslateState(state.Attrs, mapping)}
		}
		s.requestState(cl, to, false, false,
			func(old widget.TreeState) {
				s.landTransfer(id, func() (wire.ApplyState, error) {
					// The logged CopyTo carries the overwritten state: it is
					// the backup.
					if err := s.commit(s.record(eventlog.KindHist, cl, wire.CopyTo{To: to, State: old})); err != nil {
						return wire.ApplyState{}, err
					}
					s.mCopies.Inc()
					return wire.ApplyState{Path: to.Path, State: state, Origin: cl.id, Destructive: destructive}, nil
				})
			},
			func(reason string) {
				s.failTransfer(id, fmt.Errorf("server: backing up %s: %s", stateID(to), reason))
			})
	}
	if carried != nil {
		land(*carried)
		return
	}
	s.requestState(cl, from, true, shallow, land,
		func(reason string) {
			s.failTransfer(id, fmt.Errorf("server: fetching %s: %s", stateID(from), reason))
		})
}

// handleCopyTo implements passive synchronization: the sender pushes its own
// captured state onto the destination ("one person lets another person see
// his or her work", §3.1).
func (s *Server) handleCopyTo(cl *client, seq uint64, m wire.CopyTo) {
	s.copyState(cl, seq, couple.ObjectRef{Instance: cl.id, Path: m.FromPath}, m.To, &m.State, false, m.Destructive)
}

// handleCopyFrom implements active synchronization: the requester pulls a
// remote object's state onto a local object ("monitoring another person's
// activities", §3.1).
func (s *Server) handleCopyFrom(cl *client, seq uint64, m wire.CopyFrom) {
	s.copyState(cl, seq, m.From, couple.ObjectRef{Instance: cl.id, Path: m.ToPath}, nil, m.Shallow, m.Destructive)
}

// handleRemoteCopy lets a third instance copy state between two remote
// objects (the RemoteCopy primitive, §3.1).
func (s *Server) handleRemoteCopy(cl *client, seq uint64, m wire.RemoteCopy) {
	s.copyState(cl, seq, m.From, m.To, nil, false, m.Destructive)
}

// handleUndoRedo restores a historical state of the client's own object: a
// transfer from the history, under the object's floor like a copy.
func (s *Server) handleUndoRedo(cl *client, seq uint64, path string, undo bool) {
	ref := couple.ObjectRef{Instance: cl.id, Path: path}
	if _, err := s.checkDeclared(ref); err != nil {
		s.reply(cl, seq, err)
		return
	}
	id := s.beginTransfer(cl, seq, ref)
	if id == 0 {
		return
	}
	s.requestState(cl, ref, false, false,
		func(current widget.TreeState) {
			s.landTransfer(id, func() (wire.ApplyState, error) {
				// The state to restore is the top of the stack the walk pops,
				// read as the history stands when the current state arrives.
				undos, redos := s.st.history.Stacks(ref)
				kind, stack := eventlog.KindRedo, redos
				if undo {
					kind, stack = eventlog.KindUndo, undos
				}
				if len(stack) == 0 {
					return wire.ApplyState{}, fmt.Errorf("server: no state to restore for %s", stateID(ref))
				}
				snap := stack[len(stack)-1]
				// The logged CopyTo carries the pre-walk current state — the
				// value the walk pushes on the opposite stack — so replaying
				// the walk reproduces both stacks.
				if err := s.commit(s.groupRecord(kind, cl, ref, wire.CopyTo{To: ref, State: current})); err != nil {
					return wire.ApplyState{}, err
				}
				return wire.ApplyState{Path: path, State: snap.State, Origin: snap.Origin, Destructive: true}, nil
			})
		},
		func(reason string) {
			s.failTransfer(id, fmt.Errorf("server: reading current state of %s: %s", stateID(ref), reason))
		})
}
