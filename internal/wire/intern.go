package wire

// The event path repeats a handful of identifiers on every frame of a
// connection: the member's own object path in each Exec and SetLocks, the
// event name, the origin's instance ID and path. A Conn remembers the
// identifier strings it has decoded and hands the same string out again, so
// after a connection's first event they cost a map probe instead of an
// allocation each. Only identifiers are interned — object paths, event
// names, instance IDs, class names; payload values, free-form text and
// tokens never are.

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
