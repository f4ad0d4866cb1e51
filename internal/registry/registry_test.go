package registry

import (
	"reflect"
	"testing"

	"cosoft/internal/couple"
)

func TestRegisterLookupDeregister(t *testing.T) {
	s := NewStore()
	r := Record{ID: "tori-1", AppType: "tori", Host: "board", User: "teacher"}
	if err := s.Register(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(r); err == nil {
		t.Error("duplicate register must fail")
	}
	if err := s.Register(Record{}); err == nil {
		t.Error("empty id must fail")
	}
	got, err := s.Lookup("tori-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "teacher" || got.Objects == nil {
		t.Errorf("Lookup = %+v", got)
	}
	if !s.Deregister("tori-1") {
		t.Error("Deregister must report true")
	}
	if s.Deregister("tori-1") {
		t.Error("second Deregister must report false")
	}
	if _, err := s.Lookup("tori-1"); err == nil {
		t.Error("lookup after deregister must fail")
	}
}

func TestNextIDUnique(t *testing.T) {
	s := NewStore()
	seen := make(map[couple.InstanceID]bool)
	for i := 0; i < 100; i++ {
		id := s.NextID("app")
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if again := s.NextID("app"); again != id {
			t.Fatalf("NextID moved the allocator: %q then %q", id, again)
		}
		s.RestoreSeq(id) // the registration is recorded
	}
}

func TestDeclareRetractObjects(t *testing.T) {
	s := NewStore()
	if err := s.DeclareObject("nope", "/x", "button"); err == nil {
		t.Error("declare on unknown instance must fail")
	}
	if err := s.Register(Record{ID: "a", AppType: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareObject("a", "/q", "textfield"); err != nil {
		t.Fatal(err)
	}
	class, ok := s.ObjectClass(couple.ObjectRef{Instance: "a", Path: "/q"})
	if !ok || class != "textfield" {
		t.Errorf("ObjectClass = %q, %v", class, ok)
	}
	s.RetractObject("a", "/q")
	if _, ok := s.ObjectClass(couple.ObjectRef{Instance: "a", Path: "/q"}); ok {
		t.Error("retract failed")
	}
	if _, ok := s.ObjectClass(couple.ObjectRef{Instance: "zz", Path: "/q"}); ok {
		t.Error("unknown instance must report false")
	}
	s.RetractObject("zz", "/q") // must not panic
}

func TestLookupReturnsCopy(t *testing.T) {
	s := NewStore()
	if err := s.Register(Record{ID: "a", AppType: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareObject("a", "/q", "button"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Lookup("a")
	got.Objects["/q"] = "mutated"
	class, _ := s.ObjectClass(couple.ObjectRef{Instance: "a", Path: "/q"})
	if class != "button" {
		t.Error("Lookup leaked internal map")
	}
}

func TestInstancesAndByUser(t *testing.T) {
	s := NewStore()
	s.Register(Record{ID: "b", User: "u1"})
	s.Register(Record{ID: "a", User: "u2"})
	s.Register(Record{ID: "c", User: "u1"})
	if got := s.Instances(); !reflect.DeepEqual(got, []couple.InstanceID{"a", "b", "c"}) {
		t.Errorf("Instances = %v", got)
	}
	if got := s.ByUser("u1"); !reflect.DeepEqual(got, []couple.InstanceID{"b", "c"}) {
		t.Errorf("ByUser = %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}
