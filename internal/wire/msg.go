package wire

import (
	"fmt"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/widget"
)

// Type identifies a protocol message.
type Type uint16

// Protocol message types.
const (
	// Session management.
	TRegister Type = iota + 1
	TRegistered
	TDeregister
	TDeclare
	TRetract
	// Coupling.
	TCouple
	TDecouple
	TLinkAdded
	TLinkRemoved
	// Synchronization by multiple execution (§3.2).
	TEvent
	TExec
	TExecAck
	TEventResult
	TSetLocks
	// Synchronization by UI state (§3.1).
	TCopyTo
	TCopyFrom
	TRemoteCopy
	TApplyState
	TStateRequest
	TStateReply
	// Protocol extension (§3.4).
	TCommand
	TCommandDeliver
	// Historical UI states.
	TUndo
	TRedo
	// Introspection and administration.
	TListInstances
	TInstanceList
	TGrantPerm
	TRevokePerm
	// Generic replies.
	TOK
	TErr
	// TFetchState asks the server for the (relevant) state of any declared
	// object; the reply is a StateReply correlated by RefSeq.
	TFetchState
	// Liveness and session resumption (fault tolerance).
	TPing
	TPong
	TSessionToken
	TResume
	// Frame batching: wire-level aggregation of the Exec fan-out hot path
	// (see batch.go and the package comment's batch-extension section).
	TBatch
	TBatchAck
)

var typeNames = map[Type]string{
	TRegister: "Register", TRegistered: "Registered", TDeregister: "Deregister",
	TDeclare: "Declare", TRetract: "Retract",
	TCouple: "Couple", TDecouple: "Decouple", TLinkAdded: "LinkAdded", TLinkRemoved: "LinkRemoved",
	TEvent: "Event", TExec: "Exec", TExecAck: "ExecAck", TEventResult: "EventResult", TSetLocks: "SetLocks",
	TCopyTo: "CopyTo", TCopyFrom: "CopyFrom", TRemoteCopy: "RemoteCopy",
	TApplyState: "ApplyState", TStateRequest: "StateRequest", TStateReply: "StateReply",
	TCommand: "Command", TCommandDeliver: "CommandDeliver",
	TUndo: "Undo", TRedo: "Redo",
	TListInstances: "ListInstances", TInstanceList: "InstanceList",
	TGrantPerm: "GrantPerm", TRevokePerm: "RevokePerm",
	TOK: "OK", TErr: "Err", TFetchState: "FetchState",
	TPing: "Ping", TPong: "Pong", TSessionToken: "SessionToken", TResume: "Resume",
	TBatch: "Batch", TBatchAck: "BatchAck",
}

// String returns the message type's name.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint16(t))
}

// Message is a decoded protocol message.
type Message interface {
	// MsgType returns the protocol type tag.
	MsgType() Type
	// encode appends the message body.
	encode(buf []byte) []byte
}

// Register announces a new application instance to the server.
type Register struct {
	AppType string
	Host    string
	User    string
}

// Registered answers the handshake with the instance ID. A Resume's answer
// also carries the token for the next resume, and Kept: whether the server
// still held the instance (a restart's ghost, whose group links precede this
// reply) rather than having dropped it, when the client must couple again.
type Registered struct {
	ID    couple.InstanceID
	Token string
	Kept  bool
}

// Deregister announces orderly instance shutdown.
type Deregister struct{}

// Declare makes one UI object couplable, announcing its widget class.
type Declare struct {
	Path  string
	Class string
}

// Retract withdraws a declared object (widget destroyed).
type Retract struct {
	Path string
}

// Couple requests a couple link from A (owned by any instance) to B. The
// creator is the sending instance, which implements both the local Couple
// primitive (A owned by sender) and RemoteCouple (third-party).
type Couple struct {
	From, To couple.ObjectRef
}

// Decouple removes the link(s) between From and To.
type Decouple struct {
	From, To couple.ObjectRef
}

// LinkAdded notifies group members of a new link, so that "the coupling
// information is replicated for each object (to be completely available
// locally)" (§3.2).
type LinkAdded struct {
	Link couple.Link
}

// LinkRemoved notifies group members of a removed link.
type LinkRemoved struct {
	Link couple.Link
}

// Event reports a user action on a coupled object to the server.
type Event struct {
	Path string
	Name string
	Args []attr.Value
}

// Exec instructs an instance to re-execute an event on its local member of
// the coupling group.
type Exec struct {
	EventID    uint64
	TargetPath string
	Name       string
	Args       []attr.Value
	Origin     couple.ObjectRef
}

// ExecAck confirms completion of an Exec; the server unlocks the group when
// all members acknowledged.
type ExecAck struct {
	EventID uint64
}

// EventResult tells the originating instance whether its event was accepted
// (lock granted and broadcast) or must be undone (lock failed).
type EventResult struct {
	OK     bool
	Reason string
}

// SetLocks instructs an instance to disable (or re-enable) local objects
// that participate in a locked coupling group.
type SetLocks struct {
	Paths  []string
	Locked bool
}

// CopyTo pushes the state of a local object onto a remote object (passive
// synchronization for the receiver, §3.1).
type CopyTo struct {
	FromPath    string
	To          couple.ObjectRef
	State       widget.TreeState
	Destructive bool
}

// CopyFrom requests the state of a remote object for a local object (active
// synchronization, §3.1).
type CopyFrom struct {
	From        couple.ObjectRef
	ToPath      string
	Destructive bool
	// Shallow copies only the source object's own attributes.
	Shallow bool
}

// RemoteCopy lets a third instance copy state between two remote objects
// (§3.1's RemoteCopy primitive).
type RemoteCopy struct {
	From, To    couple.ObjectRef
	Destructive bool
}

// ApplyState delivers a UI state to be applied to a local object. EventID
// names the state transfer it lands: the transfer holds the floor of the
// object's group until the receiver acknowledges that ID as it would an
// Exec's (an ExecAck, or an entry of a BatchAck).
type ApplyState struct {
	Path        string
	State       widget.TreeState
	Origin      couple.InstanceID
	Destructive bool
	EventID     uint64
}

// StateRequest asks an instance for the current state of one of its
// objects. RelevantOnly selects the coupling projection (each class's
// relevant attributes); the full state is used for history backups.
type StateRequest struct {
	RequestID    uint64
	Path         string
	RelevantOnly bool
	// Shallow requests only the object's own attributes, without children
	// (used for per-pair initial synchronization of mapped components).
	Shallow bool
}

// StateReply returns a requested state.
type StateReply struct {
	RequestID uint64
	OK        bool
	Reason    string
	State     widget.TreeState
}

// Command carries an application-defined command (§3.4, CoSendCommand): a
// symbolic function name plus an opaque packed message. Empty Targets means
// every other registered instance.
type Command struct {
	Name    string
	Targets []couple.InstanceID
	Payload []byte
}

// CommandDeliver hands a command to a receiving instance.
type CommandDeliver struct {
	Name    string
	From    couple.InstanceID
	Payload []byte
}

// FetchState asks the server for the current (relevant) state of any
// declared object — used by clients to compute s-compatibility mappings
// before coupling complex objects.
type FetchState struct {
	Ref          couple.ObjectRef
	RelevantOnly bool
}

// Undo asks the server to restore the last overwritten state of a local
// object from the historical UI states.
type Undo struct {
	Path string
}

// Redo re-applies the most recently undone state.
type Redo struct {
	Path string
}

// ListInstances asks for the registration records.
type ListInstances struct{}

// InstanceInfo is the wire form of a registration record.
type InstanceInfo struct {
	ID      couple.InstanceID
	AppType string
	Host    string
	User    string
	Objects []DeclaredObject
}

// DeclaredObject pairs a declared pathname with its widget class.
type DeclaredObject struct {
	Path  string
	Class string
}

// InstanceList is the reply to ListInstances.
type InstanceList struct {
	Instances []InstanceInfo
}

// GrantPerm adds an access-permission rule.
type GrantPerm struct {
	User  string
	State string
	Right uint8
}

// RevokePerm removes an access-permission rule.
type RevokePerm struct {
	User  string
	State string
	Right uint8
}

// Ping is a liveness probe. Either side may send one at any time; the peer
// answers with a Pong echoing the nonce. Pings are fire-and-forget (Seq 0)
// so they never collide with request/reply correlation.
type Ping struct {
	Nonce uint64
}

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce uint64
}

// SessionToken is both the request for and the reply carrying a resumable
// session token. A client sends it with an empty Token after registering;
// the server replies with the minted token. Presenting the token in a
// Resume handshake on a fresh connection reclaims the instance identity.
type SessionToken struct {
	Token string
}

// Resume replaces Register as the first message of a reconnecting client:
// the token proves ownership of a previous registration and is consumed,
// and the server re-registers the connection under the original instance ID
// (superseding any half-open previous connection) and answers with a
// Registered carrying the next token.
type Resume struct {
	Token string
}

// OK is the generic success reply.
type OK struct{}

// Err is the generic failure reply.
type Err struct {
	Text string
}

// MsgType implementations.

func (Register) MsgType() Type       { return TRegister }
func (Registered) MsgType() Type     { return TRegistered }
func (Deregister) MsgType() Type     { return TDeregister }
func (Declare) MsgType() Type        { return TDeclare }
func (Retract) MsgType() Type        { return TRetract }
func (Couple) MsgType() Type         { return TCouple }
func (Decouple) MsgType() Type       { return TDecouple }
func (LinkAdded) MsgType() Type      { return TLinkAdded }
func (LinkRemoved) MsgType() Type    { return TLinkRemoved }
func (Event) MsgType() Type          { return TEvent }
func (Exec) MsgType() Type           { return TExec }
func (ExecAck) MsgType() Type        { return TExecAck }
func (EventResult) MsgType() Type    { return TEventResult }
func (SetLocks) MsgType() Type       { return TSetLocks }
func (CopyTo) MsgType() Type         { return TCopyTo }
func (CopyFrom) MsgType() Type       { return TCopyFrom }
func (RemoteCopy) MsgType() Type     { return TRemoteCopy }
func (ApplyState) MsgType() Type     { return TApplyState }
func (StateRequest) MsgType() Type   { return TStateRequest }
func (StateReply) MsgType() Type     { return TStateReply }
func (Command) MsgType() Type        { return TCommand }
func (CommandDeliver) MsgType() Type { return TCommandDeliver }
func (Undo) MsgType() Type           { return TUndo }
func (Redo) MsgType() Type           { return TRedo }
func (ListInstances) MsgType() Type  { return TListInstances }
func (InstanceList) MsgType() Type   { return TInstanceList }
func (GrantPerm) MsgType() Type      { return TGrantPerm }
func (RevokePerm) MsgType() Type     { return TRevokePerm }
func (FetchState) MsgType() Type     { return TFetchState }
func (Ping) MsgType() Type           { return TPing }
func (Pong) MsgType() Type           { return TPong }
func (SessionToken) MsgType() Type   { return TSessionToken }
func (Resume) MsgType() Type         { return TResume }
func (OK) MsgType() Type             { return TOK }
func (Err) MsgType() Type            { return TErr }

// Encoders.

func (m Register) encode(buf []byte) []byte {
	buf = appendString(buf, m.AppType)
	buf = appendString(buf, m.Host)
	return appendString(buf, m.User)
}

func (m Registered) encode(buf []byte) []byte {
	buf = appendString(buf, string(m.ID))
	buf = appendString(buf, m.Token)
	return appendBool(buf, m.Kept)
}

func (Deregister) encode(buf []byte) []byte { return buf }

func (m Declare) encode(buf []byte) []byte {
	buf = appendString(buf, m.Path)
	return appendString(buf, m.Class)
}

func (m Retract) encode(buf []byte) []byte { return appendString(buf, m.Path) }

func (m Couple) encode(buf []byte) []byte {
	buf = appendObjectRef(buf, m.From)
	return appendObjectRef(buf, m.To)
}

func (m Decouple) encode(buf []byte) []byte {
	buf = appendObjectRef(buf, m.From)
	return appendObjectRef(buf, m.To)
}

func (m LinkAdded) encode(buf []byte) []byte   { return appendLink(buf, m.Link) }
func (m LinkRemoved) encode(buf []byte) []byte { return appendLink(buf, m.Link) }

func (m Event) encode(buf []byte) []byte {
	buf = appendString(buf, m.Path)
	buf = appendString(buf, m.Name)
	return attr.AppendValues(buf, m.Args)
}

func (m Exec) encode(buf []byte) []byte {
	buf = appendUvarint(buf, m.EventID)
	buf = appendString(buf, m.TargetPath)
	buf = appendString(buf, m.Name)
	buf = attr.AppendValues(buf, m.Args)
	return appendObjectRef(buf, m.Origin)
}

func (m ExecAck) encode(buf []byte) []byte { return appendUvarint(buf, m.EventID) }

func (m EventResult) encode(buf []byte) []byte {
	buf = appendBool(buf, m.OK)
	return appendString(buf, m.Reason)
}

func (m SetLocks) encode(buf []byte) []byte {
	buf = appendStringList(buf, m.Paths)
	return appendBool(buf, m.Locked)
}

func (m CopyTo) encode(buf []byte) []byte {
	buf = appendString(buf, m.FromPath)
	buf = appendObjectRef(buf, m.To)
	buf = widget.AppendTreeState(buf, m.State)
	return appendBool(buf, m.Destructive)
}

func (m CopyFrom) encode(buf []byte) []byte {
	buf = appendObjectRef(buf, m.From)
	buf = appendString(buf, m.ToPath)
	buf = appendBool(buf, m.Destructive)
	return appendBool(buf, m.Shallow)
}

func (m RemoteCopy) encode(buf []byte) []byte {
	buf = appendObjectRef(buf, m.From)
	buf = appendObjectRef(buf, m.To)
	return appendBool(buf, m.Destructive)
}

func (m ApplyState) encode(buf []byte) []byte {
	buf = appendString(buf, m.Path)
	buf = widget.AppendTreeState(buf, m.State)
	buf = appendString(buf, string(m.Origin))
	buf = appendBool(buf, m.Destructive)
	return appendUvarint(buf, m.EventID)
}

func (m StateRequest) encode(buf []byte) []byte {
	buf = appendUvarint(buf, m.RequestID)
	buf = appendString(buf, m.Path)
	buf = appendBool(buf, m.RelevantOnly)
	return appendBool(buf, m.Shallow)
}

func (m StateReply) encode(buf []byte) []byte {
	buf = appendUvarint(buf, m.RequestID)
	buf = appendBool(buf, m.OK)
	buf = appendString(buf, m.Reason)
	return widget.AppendTreeState(buf, m.State)
}

func (m Command) encode(buf []byte) []byte {
	buf = appendString(buf, m.Name)
	buf = appendUvarint(buf, uint64(len(m.Targets)))
	for _, t := range m.Targets {
		buf = appendString(buf, string(t))
	}
	return appendBytes(buf, m.Payload)
}

func (m CommandDeliver) encode(buf []byte) []byte {
	buf = appendString(buf, m.Name)
	buf = appendString(buf, string(m.From))
	return appendBytes(buf, m.Payload)
}

func (m Undo) encode(buf []byte) []byte { return appendString(buf, m.Path) }
func (m Redo) encode(buf []byte) []byte { return appendString(buf, m.Path) }

func (ListInstances) encode(buf []byte) []byte { return buf }

func (m InstanceList) encode(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(m.Instances)))
	for _, inst := range m.Instances {
		buf = appendString(buf, string(inst.ID))
		buf = appendString(buf, inst.AppType)
		buf = appendString(buf, inst.Host)
		buf = appendString(buf, inst.User)
		buf = appendUvarint(buf, uint64(len(inst.Objects)))
		for _, o := range inst.Objects {
			buf = appendString(buf, o.Path)
			buf = appendString(buf, o.Class)
		}
	}
	return buf
}

func (m GrantPerm) encode(buf []byte) []byte {
	buf = appendString(buf, m.User)
	buf = appendString(buf, m.State)
	return append(buf, m.Right)
}

func (m RevokePerm) encode(buf []byte) []byte {
	buf = appendString(buf, m.User)
	buf = appendString(buf, m.State)
	return append(buf, m.Right)
}

func (m FetchState) encode(buf []byte) []byte {
	buf = appendObjectRef(buf, m.Ref)
	return appendBool(buf, m.RelevantOnly)
}

func (m Ping) encode(buf []byte) []byte         { return appendUvarint(buf, m.Nonce) }
func (m Pong) encode(buf []byte) []byte         { return appendUvarint(buf, m.Nonce) }
func (m SessionToken) encode(buf []byte) []byte { return appendString(buf, m.Token) }
func (m Resume) encode(buf []byte) []byte       { return appendString(buf, m.Token) }

func (OK) encode(buf []byte) []byte    { return buf }
func (m Err) encode(buf []byte) []byte { return appendString(buf, m.Text) }

// decodeRecord decodes a message body of type t into rec, whose envelope the
// caller has filled and whose other fields are zero: an Exec, Event or
// ExecAck into its own field of rec, any other message boxed into rec.Msg. An
// Event's Args are checked, not decoded: its Name and Args go, as encoded,
// into the relay body rec.Relay, which rec's holder owns. What rec holds owns
// everything it references — body may be overwritten as soon as this returns
// — except identifier strings, which come out of idents (nil: plain copies).
// A notice whose body notices has seen before is the value decoded then.
func decodeRecord(rec *Record, t Type, body []byte, idents *internTable, notices *noticeMemo) error {
	rec.Type = t
	if m := notices.get(t, body); m != nil {
		rec.Msg = m
		return nil
	}
	d := &decoder{Reader: attr.NewReader(body), idents: idents, notices: notices}
	var m Message
	var payload []byte // an Event's Name and Args, once checked
	switch t {
	case TRegister:
		m = Register{AppType: d.String(), Host: d.String(), User: d.String()}
	case TRegistered:
		m = Registered{ID: d.instanceID(), Token: d.String(), Kept: d.bool()}
	case TDeregister:
		m = Deregister{}
	case TDeclare:
		m = Declare{Path: d.ident(), Class: d.ident()}
	case TRetract:
		m = Retract{Path: d.ident()}
	case TCouple:
		m = Couple{From: d.objectRef(), To: d.objectRef()}
	case TDecouple:
		m = Decouple{From: d.objectRef(), To: d.objectRef()}
	case TLinkAdded:
		m = LinkAdded{Link: d.link()}
	case TLinkRemoved:
		m = LinkRemoved{Link: d.link()}
	case TEvent:
		rec.Event.Path = d.ident()
		payload = d.Rest()
		rec.Event.Name = d.ident()
		d.SkipValues()
	case TExec:
		rec.Exec = Exec{EventID: d.Uvarint(), TargetPath: d.ident(), Name: d.ident(),
			Args: d.Values(), Origin: d.objectRef()}
	case TExecAck:
		rec.ExecAck = ExecAck{EventID: d.Uvarint()}
	case TEventResult:
		m = EventResult{OK: d.bool(), Reason: d.String()}
	case TSetLocks:
		m = SetLocks{Paths: d.identList(), Locked: d.bool()}
	case TCopyTo:
		m = CopyTo{FromPath: d.ident(), To: d.objectRef(),
			State: d.treeState(), Destructive: d.bool()}
	case TCopyFrom:
		m = CopyFrom{From: d.objectRef(), ToPath: d.ident(), Destructive: d.bool(), Shallow: d.bool()}
	case TRemoteCopy:
		m = RemoteCopy{From: d.objectRef(), To: d.objectRef(), Destructive: d.bool()}
	case TApplyState:
		m = ApplyState{Path: d.ident(), State: d.treeState(),
			Origin: d.instanceID(), Destructive: d.bool(), EventID: d.Uvarint()}
	case TStateRequest:
		m = StateRequest{RequestID: d.Uvarint(), Path: d.ident(), RelevantOnly: d.bool(), Shallow: d.bool()}
	case TStateReply:
		m = StateReply{RequestID: d.Uvarint(), OK: d.bool(), Reason: d.String(),
			State: d.treeState()}
	case TCommand:
		cmd := Command{Name: d.String()}
		for n := d.Count(maxIdents, 1); n > 0 && d.Err() == nil; n-- {
			cmd.Targets = append(cmd.Targets, d.instanceID())
		}
		cmd.Payload = d.bytes()
		m = cmd
	case TCommandDeliver:
		m = CommandDeliver{Name: d.String(), From: d.instanceID(), Payload: d.bytes()}
	case TUndo:
		m = Undo{Path: d.ident()}
	case TRedo:
		m = Redo{Path: d.ident()}
	case TListInstances:
		m = ListInstances{}
	case TInstanceList:
		list := InstanceList{}
		for n := d.Count(maxIdents, 1); n > 0 && d.Err() == nil; n-- {
			info := InstanceInfo{ID: d.instanceID(), AppType: d.String(),
				Host: d.String(), User: d.String()}
			for k := d.Count(maxIdents, 1); k > 0 && d.Err() == nil; k-- {
				info.Objects = append(info.Objects,
					DeclaredObject{Path: d.ident(), Class: d.ident()})
			}
			list.Instances = append(list.Instances, info)
		}
		m = list
	case TGrantPerm:
		m = GrantPerm{User: d.String(), State: d.String(), Right: d.Byte()}
	case TRevokePerm:
		m = RevokePerm{User: d.String(), State: d.String(), Right: d.Byte()}
	case TFetchState:
		m = FetchState{Ref: d.objectRef(), RelevantOnly: d.bool()}
	case TPing:
		m = Ping{Nonce: d.Uvarint()}
	case TPong:
		m = Pong{Nonce: d.Uvarint()}
	case TSessionToken:
		m = SessionToken{Token: d.String()}
	case TResume:
		m = Resume{Token: d.String()}
	case TBatchAck:
		m = decodeBatchAck(d)
	case TOK:
		m = OK{}
	case TErr:
		m = Err{Text: d.String()}
	default:
		return fmt.Errorf("wire: unknown message type %d", t)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%s: %w", t, err)
	}
	if t == TEvent {
		// done left nothing after the Args, so payload ends where they do.
		rec.Relay = relay(payload)
		return nil
	}
	rec.Msg = m
	notices.put(t, body, m)
	return nil
}

func (d *decoder) treeState() widget.TreeState { return widget.ReadTreeState(&d.Reader) }
