package widget

import (
	"encoding/binary"
	"fmt"
	"strings"

	"cosoft/internal/attr"
)

// TreeState is the serializable state of a complex UI object: the class,
// name and attributes of the root plus the states of all children in order.
// It is what RemoteCopy and destructive merging transfer between instances.
type TreeState struct {
	Class    string
	Name     string
	Attrs    attr.Set
	Children []TreeState
}

// CaptureTree records the state of the subtree rooted at path. When
// relevantOnly is true, only each class's relevant attributes are captured
// (the normal coupling projection); otherwise the full attribute sets are
// captured (used by the historical-state database).
func (r *Registry) CaptureTree(path string, relevantOnly bool) (TreeState, error) {
	w, err := r.Lookup(path)
	if err != nil {
		return TreeState{}, err
	}
	return captureWidget(w, relevantOnly), nil
}

func captureWidget(w *Widget, relevantOnly bool) TreeState {
	var attrs attr.Set
	if relevantOnly {
		attrs = w.RelevantState()
	} else {
		attrs = w.State()
	}
	ts := TreeState{Class: w.Class().Name, Name: w.Name(), Attrs: attrs}
	for _, c := range w.Children() {
		ts.Children = append(ts.Children, captureWidget(c, relevantOnly))
	}
	return ts
}

// BuildTree instantiates the tree state as a new subtree under parentPath.
// The created root keeps ts.Name unless name overrides it.
func (r *Registry) BuildTree(parentPath, name string, ts TreeState) (*Widget, error) {
	if name == "" {
		name = ts.Name
	}
	w, err := r.Create(parentPath, name, ts.Class, ts.Attrs)
	if err != nil {
		return nil, err
	}
	for _, c := range ts.Children {
		if _, err := r.BuildTree(w.Path(), "", c); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// CountNodes returns the number of widgets described by the tree state.
func (ts TreeState) CountNodes() int {
	n := 1
	for _, c := range ts.Children {
		n += c.CountNodes()
	}
	return n
}

// Equal reports deep equality of two tree states.
func (ts TreeState) Equal(o TreeState) bool {
	if ts.Class != o.Class || ts.Name != o.Name || !ts.Attrs.Equal(o.Attrs) ||
		len(ts.Children) != len(o.Children) {
		return false
	}
	for i := range ts.Children {
		if !ts.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the tree state as an indented outline.
func (ts TreeState) String() string {
	var b strings.Builder
	ts.write(&b, 0)
	return b.String()
}

func (ts TreeState) write(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s %s %s\n", strings.Repeat("  ", depth), ts.Class, ts.Name, ts.Attrs)
	for _, c := range ts.Children {
		c.write(b, depth+1)
	}
}

// Decoding limits: a node lists at most maxTreeChildren children, and a tree
// nests at most maxTreeDepth levels, the root being the first; a tree any
// program of this module builds is a few levels deep.
const (
	maxTreeChildren = 1 << 16
	maxTreeDepth    = 256
)

// AppendTreeState appends the binary encoding of a tree state.
func AppendTreeState(buf []byte, ts TreeState) []byte {
	buf = appendString(buf, ts.Class)
	buf = appendString(buf, ts.Name)
	buf = attr.AppendSet(buf, ts.Attrs)
	buf = binary.AppendUvarint(buf, uint64(len(ts.Children)))
	for _, c := range ts.Children {
		buf = AppendTreeState(buf, c)
	}
	return buf
}

// DecodeTreeState decodes a tree state, returning it and the remaining
// bytes.
func DecodeTreeState(buf []byte) (TreeState, []byte, error) {
	r := attr.NewReader(buf)
	ts := ReadTreeState(&r)
	return ts, r.Rest(), r.Err()
}

// ReadTreeState reads a tree state AppendTreeState wrote through r.
func ReadTreeState(r *attr.Reader) TreeState { return readTree(r, 1) }

func readTree(r *attr.Reader, depth int) TreeState {
	if depth > maxTreeDepth {
		r.Fail(fmt.Sprintf("tree deeper than %d levels", maxTreeDepth))
		return TreeState{}
	}
	ts := TreeState{Class: r.String(), Name: r.String(), Attrs: r.Set()}
	for n := r.Count(maxTreeChildren, 1); n > 0 && r.Err() == nil; n-- {
		ts.Children = append(ts.Children, readTree(r, depth+1))
	}
	if r.Err() != nil {
		return TreeState{}
	}
	return ts
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
