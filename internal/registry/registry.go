// Package registry implements the server's registration records (§2.1):
// per-instance metadata — application instance identifier, application type,
// host name, user name — plus the objects each instance has declared
// couplable.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosoft/internal/couple"
)

// Record describes one registered application instance.
type Record struct {
	// ID is the unique application instance identifier.
	ID couple.InstanceID
	// AppType names the application ("tori", "cosoft-teacher", ...). Two
	// instances with different AppType values are *heterogeneous*.
	AppType string
	// Host is the machine the instance runs on.
	Host string
	// User is the human participant.
	User string
	// Since is the registration time.
	Since time.Time
	// Objects lists the pathnames the instance has declared couplable,
	// mapped to their widget class names (used for compatibility checks).
	Objects map[string]string
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	cp := r
	cp.Objects = make(map[string]string, len(r.Objects))
	for k, v := range r.Objects {
		cp.Objects[k] = v
	}
	return cp
}

// Store holds the registration records. The zero value is not usable; call
// NewStore.
type Store struct {
	mu      sync.RWMutex
	records map[couple.InstanceID]Record
	nextSeq uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{records: make(map[couple.InstanceID]Record)}
}

// NextID returns the identifier, derived from the application type, that the
// next registration takes. It only reads: the allocator moves past the ID
// when the registration is recorded (RestoreSeq), so a registration that is
// refused spends nothing.
func (s *Store) NextID(appType string) couple.InstanceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return couple.InstanceID(fmt.Sprintf("%s-%d", appType, s.nextSeq+1))
}

// RestoreSeq advances the ID allocator past an identifier recovered from a
// durable log, so IDs minted after a restart never collide with pre-crash
// ones. IDs not shaped like NextID's output ("type-N") are ignored.
func (s *Store) RestoreSeq(id couple.InstanceID) {
	i := strings.LastIndexByte(string(id), '-')
	if i < 0 {
		return
	}
	n, err := strconv.ParseUint(string(id)[i+1:], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextSeq {
		s.nextSeq = n
	}
}

// Seq returns the ID allocator's current sequence number (for snapshots).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// SetSeq advances the ID allocator to at least n when installing a
// snapshot. Advance-only: the allocator never moves backwards, so a
// snapshot can only widen the range of IDs considered spent.
func (s *Store) SetSeq(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextSeq {
		s.nextSeq = n
	}
}

// Register inserts a record. The record's ID must be set and unused.
func (s *Store) Register(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("registry: empty instance id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.records[r.ID]; ok {
		return fmt.Errorf("registry: instance %q already registered", r.ID)
	}
	if r.Objects == nil {
		r.Objects = make(map[string]string)
	}
	s.records[r.ID] = r
	return nil
}

// Deregister removes a record, reporting whether it existed.
func (s *Store) Deregister(id couple.InstanceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.records[id]; !ok {
		return false
	}
	delete(s.records, id)
	return true
}

// Lookup returns a copy of the record for id.
func (s *Store) Lookup(id couple.InstanceID) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.records[id]
	if !ok {
		return Record{}, fmt.Errorf("registry: unknown instance %q", id)
	}
	return r.Clone(), nil
}

// DeclareObject records that the instance's object at path (of the given
// widget class) is couplable.
func (s *Store) DeclareObject(id couple.InstanceID, path, class string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[id]
	if !ok {
		return fmt.Errorf("registry: unknown instance %q", id)
	}
	r.Objects[path] = class
	return nil
}

// RetractObject removes a declared object (destroyed widgets).
func (s *Store) RetractObject(id couple.InstanceID, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.records[id]; ok {
		delete(r.Objects, path)
	}
}

// ObjectClass returns the declared widget class of the object, if declared.
func (s *Store) ObjectClass(ref couple.ObjectRef) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.records[ref.Instance]
	if !ok {
		return "", false
	}
	class, ok := r.Objects[ref.Path]
	return class, ok
}

// Instances returns all registered IDs, sorted.
func (s *Store) Instances() []couple.InstanceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]couple.InstanceID, 0, len(s.records))
	for id := range s.records {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ByUser returns the IDs registered by the given user, sorted.
func (s *Store) ByUser(user string) []couple.InstanceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []couple.InstanceID
	for id, r := range s.records {
		if r.User == user {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of registered instances.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}
