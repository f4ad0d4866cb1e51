package classroom

import (
	"strings"
	"testing"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

type room struct {
	t        *testing.T
	bed      *testbed.Bed
	teacher  *Teacher
	attached []interface{ Detach() }
}

func newRoom(t *testing.T) *room {
	t.Helper()
	r := &room{t: t}
	// Registered before the bed, so the environments detach only after its
	// teardown has judged the server with every one of them attached.
	t.Cleanup(func() {
		for _, env := range r.attached {
			env.Detach()
		}
	})
	r.bed = testbed.New(t, server.New(server.Options{}), testbed.Options{})
	r.teacher = NewTeacher()
	if err := r.teacher.Attach(r.bed.Conn(), "teacher", client.Options{RPCTimeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	r.attached = append(r.attached, r.teacher)
	return r
}

func (r *room) addStudent(user, task string) *Student {
	r.t.Helper()
	s := NewStudent(task)
	if err := s.Attach(r.bed.Conn(), user, client.Options{RPCTimeout: 5 * time.Second}); err != nil {
		r.t.Fatal(err)
	}
	r.attached = append(r.attached, s)
	return s
}

func attrStr(t *testing.T, reg *widget.Registry, path, name string) string {
	t.Helper()
	w, err := reg.Lookup(path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return w.Attr(name).AsString()
}

func TestRaiseHandBuffersMessage(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("nina", "plot 2x+1")
	if err := s.RaiseHand("I am stuck"); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "inbox message", func() bool { return len(r.teacher.Inbox()) == 1 })
	msg := r.teacher.Inbox()[0]
	if msg.Text != "I am stuck" || msg.Auto || msg.From != s.Client().ID() {
		t.Errorf("message = %+v", msg)
	}
	if msg.User != "nina" {
		t.Errorf("user = %q", msg.User)
	}
	r.teacher.ClearInbox()
	if len(r.teacher.Inbox()) != 0 {
		t.Error("ClearInbox failed")
	}
}

func TestRaiseHandButton(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("nina", "plot 2x+1")
	if err := s.Registry().Dispatch(&widget.Event{Path: "/desk/raisehand", Name: widget.EventActivate}); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "button-driven request", func() bool { return len(r.teacher.Inbox()) == 1 })
}

func TestDemonGeneratesAutomaticMessage(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("omar", "plot x^2")
	if err := s.SetAnswer("is it a parabola?"); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "demon message", func() bool { return len(r.teacher.Inbox()) == 1 })
	msg := r.teacher.Inbox()[0]
	if !msg.Auto {
		t.Error("demon message must be marked automatic")
	}
	if !strings.Contains(msg.Text, "unsure") {
		t.Errorf("text = %q", msg.Text)
	}
	if s.Demon().Triggered() != 1 {
		t.Errorf("triggered = %d", s.Demon().Triggered())
	}
	// A confident answer triggers nothing further.
	if err := s.SetAnswer("a parabola with vertex 0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if len(r.teacher.Inbox()) != 1 {
		t.Error("confident answer must not alert")
	}
	// Custom rule.
	s.Demon().AddRule(func(answer string) string {
		if strings.Contains(answer, "x^3") {
			return "wrong degree"
		}
		return ""
	})
	if err := s.SetAnswer("x^3"); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "custom rule", func() bool { return len(r.teacher.Inbox()) == 2 })
}

func TestStudentsListing(t *testing.T) {
	r := newRoom(t)
	r.addStudent("a", "t1")
	r.addStudent("b", "t2")
	students, err := r.teacher.Students()
	if err != nil {
		t.Fatal(err)
	}
	if len(students) != 2 {
		t.Fatalf("students = %d", len(students))
	}
	for _, st := range students {
		if st.AppType != StudentAppType {
			t.Errorf("listing includes %s", st.AppType)
		}
	}
}

func TestJoinSessionCouplesTermAndDisplayRegenerates(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("pia", "plot a line")
	if err := r.teacher.JoinSession(s.Client().ID(), DefaultPairs()); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "coupled term", func() bool { return s.Client().Coupled("/desk/term") })

	// The teacher writes a function term on the blackboard; the student's
	// term field replicates, and the student's *local* function display
	// regenerates from it (indirect coupling of the dependent object).
	if err := r.teacher.SetTerm("2*x+1"); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "student term", func() bool {
		return attrStr(t, s.Registry(), "/desk/term", widget.AttrValue) == "2*x+1"
	})
	testbed.Wait(t, "student display regenerated", func() bool {
		w, err := s.Registry().Lookup("/desk/display")
		return err == nil && len(w.Attr(widget.AttrStrokes).AsPointList()) == 64
	})
	// Teacher display regenerated locally as well.
	tw, _ := r.teacher.Registry().Lookup("/board/display")
	if len(tw.Attr(widget.AttrStrokes).AsPointList()) != 64 {
		t.Error("teacher display not regenerated")
	}

	// The student's answer field is coupled to the teacher's notes via the
	// heterogeneous-name correspondence pair.
	if err := s.SetAnswer("slope 2, intercept 1"); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "teacher notes", func() bool {
		return attrStr(t, r.teacher.Registry(), "/board/notes", widget.AttrValue) == "slope 2, intercept 1"
	})

	// End the session: decoupled, both keep their last states.
	if err := r.teacher.EndSession(s.Client().ID(), DefaultPairs()); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "decoupled", func() bool { return !s.Client().Coupled("/desk/term") })
	if err := r.teacher.SetTerm("x^2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := attrStr(t, s.Registry(), "/desk/term", widget.AttrValue); got != "2*x+1" {
		t.Errorf("student term after decouple = %q", got)
	}
}

func TestInspectStudent(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("kim", "differentiate x^2")
	if err := s.SetAnswer("2x"); err != nil {
		t.Fatal(err)
	}
	ts, err := r.teacher.InspectStudent(s.Client().ID())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Class != "form" || ts.Name != "desk" {
		t.Errorf("root = %s %s", ts.Class, ts.Name)
	}
	var answer string
	for _, c := range ts.Children {
		if c.Name == "answer" {
			answer = c.Attrs.Get(widget.AttrValue).AsString()
		}
	}
	if answer != "2x" {
		t.Errorf("inspected answer = %q", answer)
	}
}

func TestRenderTermInvalid(t *testing.T) {
	s := NewStudent("t")
	// Invalid terms clear the canvas instead of erroring.
	if err := s.SetTerm("((("); err != nil {
		t.Fatal(err)
	}
	w, _ := s.Registry().Lookup("/desk/display")
	if len(w.Attr(widget.AttrStrokes).AsPointList()) != 0 {
		t.Error("invalid term must clear the display")
	}
	// Valid again.
	if err := s.SetTerm("x"); err != nil {
		t.Fatal(err)
	}
	if len(w.Attr(widget.AttrStrokes).AsPointList()) != 64 {
		t.Error("valid term must render")
	}
	// Unknown canvas path is a no-op.
	RenderTerm(s.Registry(), "/nowhere", "x", 8)
}

func TestRaiseHandWithoutTeacher(t *testing.T) {
	bed := testbed.New(t, server.New(server.Options{}), testbed.Options{})
	s := NewStudent("t")
	if err := s.Attach(bed.Conn(), "solo", client.Options{RPCTimeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	if err := s.RaiseHand("anyone?"); err == nil {
		t.Error("raising hand without a teacher must fail")
	}
}

func TestAccessorsAndNotes(t *testing.T) {
	r := newRoom(t)
	s := r.addStudent("zoe", "task")
	if r.teacher.Client() == nil || s.Client() == nil {
		t.Fatal("Client accessor nil")
	}
	if err := r.teacher.SetNotes("public remark"); err != nil {
		t.Fatal(err)
	}
	if got := attrStr(t, r.teacher.Registry(), "/board/notes", widget.AttrValue); got != "public remark" {
		t.Errorf("notes = %q", got)
	}
	if err := s.SetAnswer("done"); err != nil {
		t.Fatal(err)
	}
	if s.Answer() != "done" {
		t.Errorf("Answer = %q", s.Answer())
	}
}
