package session

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

type fixture struct {
	t       *testing.T
	clients []*client.Client
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	bed := testbed.New(t, server.New(server.Options{}), testbed.Options{})
	f := &fixture{t: t}
	for i := 0; i < n; i++ {
		cli := bed.Dial(testbed.Member{AppType: "pad", User: "u", Spec: `textfield pad value=""`})
		if err := cli.Declare("/pad"); err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, cli)
	}
	return f
}

func (f *fixture) ref(i int) couple.ObjectRef { return f.clients[i].Ref("/pad") }

func (f *fixture) waitGroupSize(i, others int) {
	f.t.Helper()
	testbed.Wait(f.t, fmt.Sprintf("client %d group size %d", i, others), func() bool {
		return len(f.clients[i].CO("/pad")) == others
	})
}

func (f *fixture) typeAt(i int, text string) {
	f.t.Helper()
	testbed.Wait(f.t, fmt.Sprintf("client %d to type %q", i, text), func() bool {
		return f.clients[i].DispatchChecked(&widget.Event{
			Path: "/pad", Name: widget.EventChanged, Args: []attr.Value{attr.String(text)},
		}) == nil
	})
}

func (f *fixture) valueAt(i int) string {
	w, err := f.clients[i].Registry().Lookup("/pad")
	if err != nil {
		f.t.Fatal(err)
	}
	return w.Attr(widget.AttrValue).AsString()
}

func (f *fixture) waitValue(i int, want string) {
	f.t.Helper()
	testbed.Wait(f.t, fmt.Sprintf("client %d value %q", i, want), func() bool { return f.valueAt(i) == want })
}

func TestCreateValidation(t *testing.T) {
	f := newFixture(t, 1)
	fac := NewFacilitator(f.clients[0])
	if err := fac.Create(""); err == nil {
		t.Error("empty name must fail")
	}
	if err := fac.Create("s"); err != nil {
		t.Fatal(err)
	}
	if err := fac.Create("s"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if got := fac.Sessions(); !reflect.DeepEqual(got, []string{"s"}) {
		t.Errorf("Sessions = %v", got)
	}
	if _, err := fac.Members("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Members: %v", err)
	}
	if err := fac.Add("nope", f.ref(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Add: %v", err)
	}
	if err := fac.Remove("nope", f.ref(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove: %v", err)
	}
	if err := fac.Dissolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Dissolve: %v", err)
	}
}

func TestSessionGrowsAndSynchronizes(t *testing.T) {
	f := newFixture(t, 4)
	fac := NewFacilitator(f.clients[3]) // the facilitator is a third party
	if err := fac.Create("workgroup"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fac.Add("workgroup", f.ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fac.Add("workgroup", f.ref(0)); !errors.Is(err, ErrMember) {
		t.Errorf("double add: %v", err)
	}
	members, err := fac.Members("workgroup")
	if err != nil || len(members) != 3 {
		t.Fatalf("members = %v, %v", members, err)
	}
	// All three form one coupling group by transitive closure.
	for i := 0; i < 3; i++ {
		f.waitGroupSize(i, 2)
	}
	f.typeAt(1, "session text")
	for i := 0; i < 3; i++ {
		f.waitValue(i, "session text")
	}
	// The facilitator's own pad is untouched.
	if f.valueAt(3) != "" {
		t.Error("facilitator pad must stay private")
	}
}

func TestRemoveMember(t *testing.T) {
	f := newFixture(t, 4)
	fac := NewFacilitator(f.clients[3])
	if err := fac.Create("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fac.Add("g", f.ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.waitGroupSize(2, 2)
	// Remove a non-anchor member.
	if err := fac.Remove("g", f.ref(2)); err != nil {
		t.Fatal(err)
	}
	f.waitGroupSize(0, 1)
	f.waitGroupSize(2, 0)
	if err := fac.Remove("g", f.ref(2)); !errors.Is(err, ErrNotMember) {
		t.Errorf("double remove: %v", err)
	}
	// The survivors still synchronize.
	f.typeAt(0, "still shared")
	f.waitValue(1, "still shared")
	if f.valueAt(2) == "still shared" {
		t.Error("removed member must not receive events")
	}
}

func TestRemoveAnchorReanchors(t *testing.T) {
	f := newFixture(t, 4)
	fac := NewFacilitator(f.clients[3])
	if err := fac.Create("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fac.Add("g", f.ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.waitGroupSize(2, 2)
	// Remove the anchor (member 0): members 1 and 2 must remain one group.
	if err := fac.Remove("g", f.ref(0)); err != nil {
		t.Fatal(err)
	}
	f.waitGroupSize(0, 0)
	f.waitGroupSize(1, 1)
	f.waitGroupSize(2, 1)
	f.typeAt(1, "after reanchor")
	f.waitValue(2, "after reanchor")
	if f.valueAt(0) == "after reanchor" {
		t.Error("removed anchor must not receive events")
	}
	members, _ := fac.Members("g")
	if len(members) != 2 {
		t.Errorf("members = %v", members)
	}
}

func TestDissolve(t *testing.T) {
	f := newFixture(t, 4)
	fac := NewFacilitator(f.clients[3])
	if err := fac.Create("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fac.Add("g", f.ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.waitGroupSize(2, 2)
	if err := fac.Dissolve("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.waitGroupSize(i, 0)
	}
	if len(fac.Sessions()) != 0 {
		t.Error("session not forgotten")
	}
	// Objects persist with their last state after dissolution.
	for i := 0; i < 3; i++ {
		if f.clients[i].Registry() == nil {
			t.Error("registry gone")
		}
	}
}

func TestAddWithSyncAlignsLateJoiner(t *testing.T) {
	f := newFixture(t, 3)
	fac := NewFacilitator(f.clients[2])
	if err := fac.Create("g"); err != nil {
		t.Fatal(err)
	}
	if err := fac.Add("g", f.ref(0)); err != nil {
		t.Fatal(err)
	}
	f.typeAt(0, "existing work")
	// The late joiner starts blank; AddWithSync copies the anchor's state
	// before coupling.
	if err := fac.AddWithSync("g", f.ref(1)); err != nil {
		t.Fatal(err)
	}
	f.waitValue(1, "existing work")
	f.waitGroupSize(1, 1)
	// From now on events replicate.
	f.typeAt(0, "and more")
	f.waitValue(1, "and more")
	// AddWithSync into an empty session is just Add.
	if err := fac.Create("empty"); err != nil {
		t.Fatal(err)
	}
	if err := fac.AddWithSync("empty", f.ref(2)); err != nil {
		t.Fatal(err)
	}
	if err := fac.AddWithSync("nope", f.ref(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddWithSync to unknown session: %v", err)
	}
}
