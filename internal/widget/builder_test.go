package widget

import (
	"errors"
	"strings"
	"testing"

	"cosoft/internal/attr"
)

const sampleSpec = `
# A query form like TORI generates.
form query title="Query"
  label caption label="Author"
  textfield author width=40 value=""
  menu op items=[eq,substring,like-one-of] selection="eq"
  form buttons
    button submit label="Search"
    button clear label="Clear"
`

func TestBuildSpec(t *testing.T) {
	r := NewRegistry()
	root, err := Build(r, "/", sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if root.Path() != "/query" {
		t.Errorf("root = %q", root.Path())
	}
	w, err := r.Lookup("/query/buttons/submit")
	if err != nil {
		t.Fatal(err)
	}
	if w.Attr(AttrLabel).AsString() != "Search" {
		t.Error("nested attr wrong")
	}
	m, err := r.Lookup("/query/op")
	if err != nil {
		t.Fatal(err)
	}
	items := m.Attr(AttrItems).AsStringList()
	if len(items) != 3 || items[1] != "substring" {
		t.Errorf("items = %v", items)
	}
	if m.Attr(AttrSelection).AsString() != "eq" {
		t.Error("selection wrong")
	}
	tf, _ := r.Lookup("/query/author")
	if tf.Attr(AttrWidth).AsInt() != 40 {
		t.Error("int attr wrong")
	}
}

func TestBuildValueTypes(t *testing.T) {
	r := NewRegistry()
	spec := `form f title="T"
  toggle t1 state=true
  toggle t2 state=false
  scale s min=-5 max=5 position=2
  label l label="quoted \"str\"" foreground=#102030
  textfield tf value=plainword`
	if _, err := Build(r, "/", spec); err != nil {
		t.Fatal(err)
	}
	get := func(p, a string) attr.Value {
		w, err := r.Lookup(p)
		if err != nil {
			t.Fatalf("lookup %s: %v", p, err)
		}
		return w.Attr(a)
	}
	if !get("/f/t1", AttrState).Equal(attr.Bool(true)) {
		t.Error("bool true")
	}
	if !get("/f/t2", AttrState).Equal(attr.Bool(false)) {
		t.Error("bool false")
	}
	if !get("/f/s", AttrMin).Equal(attr.Int(-5)) {
		t.Error("negative int")
	}
	if got := get("/f/l", AttrLabel).AsString(); got != `quoted "str"` {
		t.Errorf("quoted = %q", got)
	}
	if !get("/f/l", AttrFg).Equal(attr.Color("#102030")) {
		t.Error("color literal")
	}
	if !get("/f/tf", AttrValue).Equal(attr.String("plainword")) {
		t.Error("bare word")
	}
}

func TestBuildErrors(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name, spec string
	}{
		{"empty", "\n\n# only comments\n"},
		{"odd indent", "form f\n   button b"},
		{"jump levels", "form f\n    button b"},
		{"missing name", "form"},
		{"bad attr", "form f junk"},
		{"bad class", "frobnicator f"},
		{"unterminated quote", `form f title="oops`},
		{"unterminated bracket", "menu m items=[a,b"},
		{"child of leaf", "button b\n  label l"},
		{"empty value", "form f title="},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Build(NewRegistry(), "/", c.spec); err == nil {
				t.Errorf("spec %q: expected error", c.spec)
			}
		})
	}
	_ = r
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild must panic on error")
		}
	}()
	MustBuild(NewRegistry(), "/", "bogusclass x")
}

func TestCaptureAndBuildTree(t *testing.T) {
	r := NewRegistry()
	MustBuild(r, "/", sampleSpec)
	ts, err := r.CaptureTree("/query", false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.CountNodes() != 7 {
		t.Errorf("CountNodes = %d, want 7", ts.CountNodes())
	}
	// Rebuild in a fresh registry and compare captures.
	r2 := NewRegistry()
	if _, err := r2.BuildTree("/", "", ts); err != nil {
		t.Fatal(err)
	}
	ts2, err := r2.CaptureTree("/query", false)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Equal(ts2) {
		t.Errorf("rebuilt tree differs:\n%s\nvs\n%s", ts, ts2)
	}
	// Name override.
	if _, err := r2.BuildTree("/", "copy", ts); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Lookup("/copy/author"); err != nil {
		t.Error("renamed copy missing children")
	}
}

func TestCaptureRelevantOnly(t *testing.T) {
	r := NewRegistry()
	MustBuild(r, "/", "textfield t width=33 value=\"v\"")
	ts, err := r.CaptureTree("/t", true)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Attrs.Has(AttrWidth) {
		t.Error("relevant capture must exclude width")
	}
	if !ts.Attrs.Get(AttrValue).Equal(attr.String("v")) {
		t.Error("relevant capture must include value")
	}
}

func TestTreeStateCodec(t *testing.T) {
	r := NewRegistry()
	MustBuild(r, "/", sampleSpec)
	ts, err := r.CaptureTree("/query", false)
	if err != nil {
		t.Fatal(err)
	}
	buf := AppendTreeState(nil, ts)
	got, rest, err := DecodeTreeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if !got.Equal(ts) {
		t.Errorf("round trip mismatch")
	}
	// Corruption must error, not panic.
	for i := 1; i < len(buf); i += 7 {
		if _, _, err := DecodeTreeState(buf[:i]); err == nil && i < len(buf)-1 {
			// Some prefixes may decode as a smaller valid tree; only require
			// no panic.
			continue
		}
	}
	if _, _, err := DecodeTreeState(nil); err == nil {
		t.Error("nil decode must fail")
	}
}

// chain is a tree of levels nested forms, one per level.
func chain(levels int) TreeState {
	ts := TreeState{Class: "form", Name: "f"}
	for i := 1; i < levels; i++ {
		ts = TreeState{Class: "form", Name: "f", Children: []TreeState{ts}}
	}
	return ts
}

// A tree maxTreeDepth levels deep decodes; one level more is refused as
// corrupt, so nesting read from outside cannot recurse without bound.
func TestTreeDepthLimit(t *testing.T) {
	deepest := chain(maxTreeDepth)
	got, _, err := DecodeTreeState(AppendTreeState(nil, deepest))
	if err != nil || !got.Equal(deepest) {
		t.Fatalf("the deepest legitimate tree: %v", err)
	}
	if _, _, err := DecodeTreeState(AppendTreeState(nil, chain(maxTreeDepth+1))); !errors.Is(err, attr.ErrCorrupt) {
		t.Fatalf("a tree one level past the limit: %v, want a corrupt-encoding error", err)
	}
}

// A node may list maxTreeChildren children; one more is refused as corrupt
// even when the bytes to carry it are there.
func TestTreeChildrenLimit(t *testing.T) {
	widest := TreeState{Class: "form", Name: "f", Children: make([]TreeState, maxTreeChildren)}
	if _, _, err := DecodeTreeState(AppendTreeState(nil, widest)); err != nil {
		t.Fatalf("the widest legitimate node: %v", err)
	}
	widest.Children = append(widest.Children, TreeState{})
	if _, _, err := DecodeTreeState(AppendTreeState(nil, widest)); !errors.Is(err, attr.ErrCorrupt) {
		t.Fatalf("a node one child past the limit: %v, want a corrupt-encoding error", err)
	}
}

func TestTreeStateString(t *testing.T) {
	ts := TreeState{Class: "form", Name: "f", Attrs: attr.Set{"title": attr.String("x")},
		Children: []TreeState{{Class: "button", Name: "b", Attrs: attr.NewSet()}}}
	s := ts.String()
	if !strings.Contains(s, "form f") || !strings.Contains(s, "  button b") {
		t.Errorf("String = %q", s)
	}
}

func TestCaptureTreeMissing(t *testing.T) {
	r := NewRegistry()
	if _, err := r.CaptureTree("/missing", false); err == nil {
		t.Error("expected error")
	}
}
