package wire

// The event path repeats a handful of identifiers on every frame of a
// connection: the member's own object path in each Exec and SetLocks, the
// event name, the origin's instance ID and path. A Conn remembers the
// identifier strings it has decoded and hands the same string out again, so
// after a connection's first event they cost a map probe instead of an
// allocation each. Only identifiers are interned — object paths, event
// names, instance IDs, class names; payload values, free-form text and
// tokens never are. The lock notices and verdicts built from them are
// remembered whole (noticeMemo, below).

const (
	// maxInternEntries bounds the table. When a new identifier finds it full
	// the table is emptied and starts over: a connection's working set is a
	// few names, so a reset costs it a few allocations, and a peer inventing
	// identifiers gains nothing but those resets.
	maxInternEntries = 256
	// maxInternLen is the longest identifier worth keeping; longer ones are
	// copied per use like any other string.
	maxInternLen = 64
)

// internTable is one connection's identifier table. It is owned by the
// connection's reading goroutine and never shared between connections. The
// zero value is ready to use.
type internTable struct {
	m map[string]string
}

// get returns b as a string, reusing the copy made the first time the same
// bytes were seen. A nil table interns nothing.
func (t *internTable) get(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // no allocation: the compiler elides the conversion in a map index
		return s
	}
	if t.m == nil {
		t.m = make(map[string]string)
	} else if len(t.m) >= maxInternEntries {
		clear(t.m)
	}
	s := string(b)
	t.m[s] = s
	return s
}

// Whole notices repeat too: every event sends each member the same unlock
// notice (a SetLocks of its own paths) and its origin the same verdict
// (an EventResult). A Conn remembers the notices it has decoded, keyed by
// their type and body bytes, and hands the same value out again when the same
// body arrives, so a repeated notice costs a byte compare instead of a boxed
// message and its path slice. Sharing is safe because decoded messages are
// read-only (see the package comment).

const (
	// maxNoticeEntries bounds the memo the way maxInternEntries bounds the
	// identifier table: a new notice that finds it full empties it. A member
	// sees two notices per group it is in, an origin one verdict per outcome.
	maxNoticeEntries = 16
	// maxNoticeLen is the longest notice body worth keeping.
	maxNoticeLen = 128
)

// noticeMemo is one connection's memo of decoded notices. Like internTable it
// belongs to the connection's reading goroutine; the zero value is ready to
// use.
type noticeMemo struct {
	entries []notice
}

// notice is one memoized decode: the body it came from and its value.
type notice struct {
	t    Type
	body string
	msg  Message
}

// memoized reports whether messages of type t go through the memo.
func memoized(t Type) bool { return t == TSetLocks || t == TEventResult }

// get returns the value an earlier decode of the same type and body produced,
// or nil. A nil memo remembers nothing.
func (m *noticeMemo) get(t Type, body []byte) Message {
	if m == nil || !memoized(t) {
		return nil
	}
	for i := range m.entries {
		if e := &m.entries[i]; e.t == t && e.body == string(body) { // no allocation: a compared conversion is elided
			return e.msg
		}
	}
	return nil
}

// put remembers msg as the decode of body.
func (m *noticeMemo) put(t Type, body []byte, msg Message) {
	if m == nil || !memoized(t) || len(body) > maxNoticeLen {
		return
	}
	if len(m.entries) >= maxNoticeEntries {
		clear(m.entries)
		m.entries = m.entries[:0]
	}
	m.entries = append(m.entries, notice{t: t, body: string(body), msg: msg})
}
