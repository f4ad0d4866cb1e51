package widget

import (
	"errors"
	"reflect"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/race"
)

func TestCreateLookupPath(t *testing.T) {
	r := NewRegistry()
	f, err := r.Create("/", "panel", "form", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/panel" {
		t.Errorf("path = %q", f.Path())
	}
	b, err := r.Create("/panel", "ok", "button", attr.Set{AttrLabel: attr.String("OK")})
	if err != nil {
		t.Fatal(err)
	}
	if b.Path() != "/panel/ok" {
		t.Errorf("path = %q", b.Path())
	}
	got, err := r.Lookup("/panel/ok")
	if err != nil || got != b {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if b.Attr(AttrLabel).AsString() != "OK" {
		t.Error("override not applied")
	}
	if b.Attr(AttrBg).AsString() != "lightgray" {
		t.Error("default not applied")
	}
	if b.Parent() != f || f.Child("ok") != b {
		t.Error("parent/child links wrong")
	}
}

func TestCreateErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create("/", "x", "nosuch", nil); err == nil {
		t.Error("unknown class must fail")
	}
	if _, err := r.Create("/", "a/b", "button", nil); err == nil {
		t.Error("name with slash must fail")
	}
	if _, err := r.Create("/", "", "button", nil); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := r.Create("/missing", "x", "button", nil); err == nil {
		t.Error("missing parent must fail")
	}
	r.MustCreate("/", "b", "button", nil)
	if _, err := r.Create("/", "b", "button", nil); err == nil {
		t.Error("duplicate path must fail")
	}
	if _, err := r.Create("/b", "x", "button", nil); err == nil {
		t.Error("non-container parent must fail")
	}
}

func TestDestroySubtree(t *testing.T) {
	r := NewRegistry()
	r.MustCreate("/", "panel", "form", nil)
	r.MustCreate("/panel", "inner", "form", nil)
	r.MustCreate("/panel/inner", "ok", "button", nil)
	var destroyed []string
	r.OnDestroy(func(w *Widget) { destroyed = append(destroyed, w.Path()) })
	if err := r.Destroy("/panel"); err != nil {
		t.Fatal(err)
	}
	want := []string{"/panel/inner/ok", "/panel/inner", "/panel"} // leaves first
	if !reflect.DeepEqual(destroyed, want) {
		t.Errorf("destroy order = %v, want %v", destroyed, want)
	}
	for _, p := range want {
		if _, err := r.Lookup(p); !errors.Is(err, ErrNotFound) {
			t.Errorf("Lookup(%q) after destroy: %v", p, err)
		}
	}
	if len(r.Root().Children()) != 0 {
		t.Error("root still has children")
	}
	if err := r.Destroy("/panel"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double destroy: %v", err)
	}
	if err := r.Destroy("/"); err == nil {
		t.Error("destroying root must fail")
	}
}

func TestPathsAndWalk(t *testing.T) {
	r := NewRegistry()
	r.MustCreate("/", "a", "form", nil)
	r.MustCreate("/a", "b", "button", nil)
	r.MustCreate("/", "c", "label", nil)
	want := []string{"/", "/a", "/a/b", "/c"}
	if got := r.Paths(); !reflect.DeepEqual(got, want) {
		t.Errorf("Paths = %v", got)
	}
	var visited []string
	if err := r.Walk("/a", func(w *Widget) error {
		visited = append(visited, w.Path())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, []string{"/a", "/a/b"}) {
		t.Errorf("Walk = %v", visited)
	}
	sentinel := errors.New("stop")
	if err := r.Walk("/", func(w *Widget) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Walk error propagation: %v", err)
	}
}

func TestAttrChangeHook(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", nil)
	var fired int
	r.OnAttrChange(func(cw *Widget, name string, old, new attr.Value) {
		fired++
		if cw != w || name != AttrValue {
			t.Errorf("hook got %s %s", cw.Path(), name)
		}
	})
	w.SetAttr(AttrValue, attr.String("x"))
	w.SetAttr(AttrValue, attr.String("x")) // no-op: equal value
	if fired != 1 {
		t.Errorf("hook fired %d times, want 1", fired)
	}
}

func TestDispatchFeedbackAndCallbacks(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", nil)
	var got []string
	if err := w.AddCallback(EventChanged, func(e *Event) {
		got = append(got, e.Args[0].AsString())
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Dispatch(&Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("hello")}}); err != nil {
		t.Fatal(err)
	}
	if w.Attr(AttrValue).AsString() != "hello" {
		t.Error("feedback not applied")
	}
	if !reflect.DeepEqual(got, []string{"hello"}) {
		t.Errorf("callbacks = %v", got)
	}
}

func TestDispatchErrors(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", nil)
	if err := r.Dispatch(&Event{Path: "/missing", Name: EventChanged}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if err := r.Dispatch(&Event{Path: "/t", Name: "bogus"}); err == nil {
		t.Error("bogus event must fail")
	}
	if err := r.Dispatch(&Event{Path: "/t", Name: EventChanged}); err == nil {
		t.Error("missing args must fail")
	}
	w.SetDisabled(true)
	err := r.Dispatch(&Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("x")}})
	if !errors.Is(err, ErrDisabled) {
		t.Errorf("disabled: %v", err)
	}
	// Remote events bypass the disabled check (the lock holder's event must
	// still be applied at lockers).
	if _, err := r.Deliver(&Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("y")}, Remote: true}); err != nil {
		t.Errorf("remote on disabled: %v", err)
	}
	w.SetDisabled(false)
	if err := r.Destroy("/t"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyFeedback(&Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("x")}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("destroyed: %v", err)
	}
}

func TestUndoFeedback(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", attr.Set{AttrValue: attr.String("before")})
	undo, err := r.ApplyFeedback(&Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("after")}})
	if err != nil {
		t.Fatal(err)
	}
	if w.Attr(AttrValue).AsString() != "after" {
		t.Error("feedback not applied")
	}
	undo()
	if w.Attr(AttrValue).AsString() != "before" {
		t.Error("undo did not restore")
	}
}

// TestDeliverAllocBudget gates the remote re-execution of an event: Deliver
// of a textfield change that really changes the value allocates nothing —
// no undo is built for an event nothing takes back — and with one callback
// attached only the callback snapshot RunCallbacks takes.
func TestDeliverAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", nil)
	events := [2]*Event{
		{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("one")}, Remote: true},
		{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("two")}, Remote: true},
	}
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"without callbacks", 0},
		{"with a callback", 1},
	} {
		if tc.want > 0 {
			if err := w.AddCallback(EventChanged, func(*Event) {}); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(200, func() {
			i++
			if _, err := r.Deliver(events[i%2]); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("Deliver %s allocates %.1f times per event, budget %.0f", tc.name, got, tc.want)
		}
		if v := w.Attr(AttrValue).AsString(); v != "one" && v != "two" {
			t.Fatalf("feedback not applied: value %q", v)
		}
	}
}

func TestOnEventInterception(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", nil)
	var intercepted *Event
	r.OnEvent(func(e *Event) { intercepted = e })
	ev := &Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("x")}}
	if err := r.Dispatch(ev); err != nil {
		t.Fatal(err)
	}
	if intercepted != ev {
		t.Fatal("hook not called")
	}
	if w.Attr(AttrValue).AsString() != "" {
		t.Error("interception must suppress local processing")
	}
	// Remote events are never intercepted (they come *from* the hook owner).
	intercepted = nil
	rev := &Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("y")}, Remote: true}
	if err := r.Dispatch(rev); err != nil {
		t.Fatal(err)
	}
	if intercepted != nil {
		t.Error("remote event must not be intercepted")
	}
	if w.Attr(AttrValue).AsString() != "y" {
		t.Error("remote event must be processed locally")
	}
}

func TestClassFeedbacks(t *testing.T) {
	r := NewRegistry()
	toggle := r.MustCreate("/", "tg", "toggle", nil)
	if err := r.Dispatch(&Event{Path: "/tg", Name: EventToggled}); err != nil {
		t.Fatal(err)
	}
	if !toggle.Attr(AttrState).AsBool() {
		t.Error("toggle did not flip")
	}

	menu := r.MustCreate("/", "m", "menu", attr.Set{AttrItems: attr.StringList("a", "b")})
	if err := r.Dispatch(&Event{Path: "/m", Name: EventSelect, Args: []attr.Value{attr.String("b")}}); err != nil {
		t.Fatal(err)
	}
	if menu.Attr(AttrSelection).AsString() != "b" {
		t.Error("menu selection not set")
	}

	scale := r.MustCreate("/", "s", "scale", attr.Set{AttrMin: attr.Int(0), AttrMax: attr.Int(10)})
	if err := r.Dispatch(&Event{Path: "/s", Name: EventMoved, Args: []attr.Value{attr.Int(99)}}); err != nil {
		t.Fatal(err)
	}
	if got := scale.Attr(AttrPosition).AsInt(); got != 10 {
		t.Errorf("scale position = %d, want clamped 10", got)
	}

	canvas := r.MustCreate("/", "c", "canvas", nil)
	stroke := attr.PointList(attr.Point{X: 1, Y: 2}, attr.Point{X: 3, Y: 4})
	if err := r.Dispatch(&Event{Path: "/c", Name: EventDraw, Args: []attr.Value{stroke}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Dispatch(&Event{Path: "/c", Name: EventDraw, Args: []attr.Value{attr.PointList(attr.Point{X: 5, Y: 6})}}); err != nil {
		t.Fatal(err)
	}
	if got := len(canvas.Attr(AttrStrokes).AsPointList()); got != 3 {
		t.Errorf("strokes = %d points, want 3", got)
	}

	btn := r.MustCreate("/", "b", "button", nil)
	fired := false
	if err := btn.AddCallback(EventActivate, func(e *Event) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := r.Dispatch(&Event{Path: "/b", Name: EventActivate}); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("button callback not fired")
	}
}

func TestTextareaEdit(t *testing.T) {
	r := NewRegistry()
	ta := r.MustCreate("/", "ta", "textarea", attr.Set{AttrText: attr.String("hello world")})
	edit := func(pos, del int64, ins string) error {
		return r.Dispatch(&Event{Path: "/ta", Name: EventEdit,
			Args: []attr.Value{attr.Int(pos), attr.Int(del), attr.String(ins)}})
	}
	if err := edit(5, 6, ", go"); err != nil {
		t.Fatal(err)
	}
	if got := ta.Attr(AttrText).AsString(); got != "hello, go" {
		t.Errorf("text = %q", got)
	}
	if err := edit(100, 0, "x"); err == nil {
		t.Error("out-of-range edit must fail")
	}
	if err := edit(0, 100, ""); err == nil {
		t.Error("over-delete must fail")
	}
	if err := edit(-1, 0, ""); err == nil {
		t.Error("negative pos must fail")
	}
	undo, err := r.ApplyFeedback(&Event{Path: "/ta", Name: EventEdit,
		Args: []attr.Value{attr.Int(0), attr.Int(5), attr.String("HI")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ta.Attr(AttrText).AsString(); got != "HI, go" {
		t.Errorf("text = %q", got)
	}
	undo()
	if got := ta.Attr(AttrText).AsString(); got != "hello, go" {
		t.Errorf("after undo text = %q", got)
	}
}

func TestRelevantState(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "t", "textfield", attr.Set{AttrValue: attr.String("v"), AttrWidth: attr.Int(99)})
	rel := w.RelevantState()
	if len(rel) != 1 || rel.Get(AttrValue).AsString() != "v" {
		t.Errorf("RelevantState = %v", rel)
	}
	full := w.State()
	if !full.Has(AttrWidth) || !full.Has(AttrFont) {
		t.Errorf("State = %v", full)
	}
}

func TestClassRegistryCustom(t *testing.T) {
	cr := NewClassRegistry()
	custom := &Class{Name: "gauge", Relevant: []string{AttrPosition}, Events: []string{EventMoved}}
	if err := cr.Register(custom); err != nil {
		t.Fatal(err)
	}
	if err := cr.Register(custom); err == nil {
		t.Error("duplicate register must fail")
	}
	if err := cr.Register(nil); err == nil {
		t.Error("nil register must fail")
	}
	got, err := cr.Lookup("gauge")
	if err != nil || got != custom {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	found := false
	for _, n := range cr.Names() {
		if n == "gauge" {
			found = true
		}
	}
	if !found {
		t.Error("Names missing custom class")
	}
	if !custom.EmitsEvent(EventMoved) || custom.EmitsEvent("x") {
		t.Error("EmitsEvent wrong")
	}
	if !custom.IsRelevant(AttrPosition) || custom.IsRelevant("x") {
		t.Error("IsRelevant wrong")
	}
}

func TestEventString(t *testing.T) {
	e := &Event{Path: "/t", Name: EventChanged, Args: []attr.Value{attr.String("x")}}
	if got := e.String(); got != `/t!changed("x")` {
		t.Errorf("String = %q", got)
	}
	e.Remote = true
	if got := e.String(); got != `/t!changed("x") (remote)` {
		t.Errorf("String = %q", got)
	}
}

func TestCallbackOnUnknownEvent(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "b", "button", nil)
	if err := w.AddCallback("bogus", func(e *Event) {}); err == nil {
		t.Error("AddCallback for undeclared event must fail")
	}
}

func TestRadioGroup(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "rg", "radiogroup", attr.Set{AttrItems: attr.StringList("red", "green")})
	if err := r.Dispatch(&Event{Path: "/rg", Name: EventSelect, Args: []attr.Value{attr.String("green")}}); err != nil {
		t.Fatal(err)
	}
	if w.Attr(AttrSelection).AsString() != "green" {
		t.Error("selection not applied")
	}
	if err := r.Dispatch(&Event{Path: "/rg", Name: EventSelect, Args: []attr.Value{attr.String("blue")}}); err == nil {
		t.Error("selection outside items must fail")
	}
	if err := r.Dispatch(&Event{Path: "/rg", Name: EventSelect}); err == nil {
		t.Error("missing arg must fail")
	}
}

func TestSpinbox(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "sp", "spinbox", attr.Set{
		AttrValue: attr.String("5"), AttrMin: attr.Int(0), AttrMax: attr.Int(10)})
	spin := func(d int64) error {
		return r.Dispatch(&Event{Path: "/sp", Name: EventSpun, Args: []attr.Value{attr.Int(d)}})
	}
	if err := spin(3); err != nil {
		t.Fatal(err)
	}
	if got := w.Attr(AttrValue).AsString(); got != "8" {
		t.Errorf("value = %q", got)
	}
	if err := spin(100); err != nil {
		t.Fatal(err)
	}
	if got := w.Attr(AttrValue).AsString(); got != "10" {
		t.Errorf("clamped value = %q", got)
	}
	if err := spin(-100); err != nil {
		t.Fatal(err)
	}
	if got := w.Attr(AttrValue).AsString(); got != "0" {
		t.Errorf("clamped value = %q", got)
	}
	// Undo restores the previous value.
	undo, err := r.ApplyFeedback(&Event{Path: "/sp", Name: EventSpun, Args: []attr.Value{attr.Int(4)}})
	if err != nil {
		t.Fatal(err)
	}
	undo()
	if got := w.Attr(AttrValue).AsString(); got != "0" {
		t.Errorf("after undo = %q", got)
	}
	// Garbage value resets to 0 before stepping.
	w.SetAttr(AttrValue, attr.String("junk"))
	if err := spin(2); err != nil {
		t.Fatal(err)
	}
	if got := w.Attr(AttrValue).AsString(); got != "2" {
		t.Errorf("from junk = %q", got)
	}
	if err := r.Dispatch(&Event{Path: "/sp", Name: EventSpun, Args: []attr.Value{attr.String("x")}}); err == nil {
		t.Error("non-int arg must fail")
	}
}

func TestProgressHasNoEvents(t *testing.T) {
	r := NewRegistry()
	w := r.MustCreate("/", "p", "progress", nil)
	if len(w.Class().Events) != 0 {
		t.Error("progress must emit no events")
	}
	if !w.Class().IsRelevant(AttrPosition) {
		t.Error("position must be relevant")
	}
}
