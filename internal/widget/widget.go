package widget

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cosoft/internal/attr"
)

// Errors returned by registry operations.
var (
	ErrNotFound  = errors.New("widget: object not found")
	ErrDestroyed = errors.New("widget: object destroyed")
	ErrDisabled  = errors.New("widget: object disabled")
)

// Callback is an application handler attached to a widget event. Handlers
// run on the dispatching goroutine, matching the single UI thread of the
// original toolkit.
type Callback func(e *Event)

// Event is a high-level callback event occurring on a UI object, the unit of
// synchronization-by-action: "most events are high-level callback events of
// UI objects" (§3.2).
type Event struct {
	// Path is the hierarchical pathname of the object the event occurred on.
	Path string
	// Name is the event name (EventActivate, EventChanged, ...).
	Name string
	// Args carries the event parameters that are "packed with the event"
	// when it is sent to the server.
	Args []attr.Value
	// Remote marks events that were received from the coupling server and
	// are being re-executed locally; applications can use it to avoid
	// loops or to render remote actions differently (congruence relaxation).
	Remote bool
}

// String renders the event for logs and transcripts.
func (e *Event) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	tag := ""
	if e.Remote {
		tag = " (remote)"
	}
	return fmt.Sprintf("%s!%s(%s)%s", e.Path, e.Name, strings.Join(parts, ", "), tag)
}

// Widget is a primitive UI object: an instance of a Class, a node in the
// widget tree, and a carrier of attribute state and callbacks.
type Widget struct {
	reg      *Registry
	class    *Class
	name     string
	path     string
	parent   *Widget
	children []*Widget
	attrs    attr.Set
	cbs      map[string][]Callback
	disabled bool
	dead     bool
}

// Class returns the widget's class definition.
func (w *Widget) Class() *Class { return w.class }

// Name returns the widget's name within its parent.
func (w *Widget) Name() string { return w.name }

// Path returns the hierarchical pathname, e.g. "/query/ok".
func (w *Widget) Path() string { return w.path }

// Parent returns the parent widget; nil for the root.
func (w *Widget) Parent() *Widget { return w.parent }

// Attr returns the current value of the named attribute.
func (w *Widget) Attr(name string) attr.Value {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	return w.attrs.Get(name)
}

// SetAttr sets the named attribute, firing the registry's attribute-change
// hook.
func (w *Widget) SetAttr(name string, v attr.Value) {
	w.reg.mu.Lock()
	w.setAttr(name, v)
	w.reg.mu.Unlock()
	w.reg.flushNotifications()
}

// setAttr must be called with the registry lock held (feedback funcs run
// under Dispatch, which holds it). Change notifications are queued and
// delivered after the lock is released, so hooks may freely manipulate
// other widgets.
func (w *Widget) setAttr(name string, v attr.Value) {
	old := w.attrs.Get(name)
	if old.Equal(v) {
		return
	}
	w.attrs.Put(name, v)
	if w.reg.onAttrChange != nil {
		w.reg.pending = append(w.reg.pending, attrChange{w: w, name: name, old: old, new: v})
	}
}

// State returns a deep copy of the full attribute set.
func (w *Widget) State() attr.Set {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	return w.attrs.Clone()
}

// RelevantState returns the attribute set projected to the class's relevant
// attributes — the portion transferred by CopyTo/CopyFrom.
func (w *Widget) RelevantState() attr.Set {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	return w.attrs.Project(w.class.Relevant)
}

// ApplyState merges the given attributes into the widget (used when a
// UI-state copy arrives).
func (w *Widget) ApplyState(s attr.Set) {
	w.reg.mu.Lock()
	for _, n := range s.Names() {
		w.setAttr(n, s.Get(n))
	}
	w.reg.mu.Unlock()
	w.reg.flushNotifications()
}

// AddCallback attaches a handler for the named event.
func (w *Widget) AddCallback(event string, cb Callback) error {
	if !w.class.EmitsEvent(event) {
		return fmt.Errorf("widget: class %q does not emit %q", w.class.Name, event)
	}
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	if w.cbs == nil {
		w.cbs = make(map[string][]Callback)
	}
	w.cbs[event] = append(w.cbs[event], cb)
	return nil
}

// Children returns the widget's children in creation order.
func (w *Widget) Children() []*Widget {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	cp := make([]*Widget, len(w.children))
	copy(cp, w.children)
	return cp
}

// Child returns the named child, or nil.
func (w *Widget) Child(name string) *Widget {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	for _, c := range w.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Disabled reports whether the widget is currently disabled (locked by the
// floor-control mechanism).
func (w *Widget) Disabled() bool {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	return w.disabled
}

// SetDisabled enables or disables the widget. Events on disabled objects are
// rejected: "Actions on locked objects are disabled" (§3.2).
func (w *Widget) SetDisabled(d bool) {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	w.disabled = d
}

// Destroyed reports whether the widget has been destroyed.
func (w *Widget) Destroyed() bool {
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	return w.dead
}

// Registry holds the widget tree of one application instance. UI objects in
// an application instance are organized as a tree along the parent/child
// relationship, addressed by hierarchical pathnames (§3).
type Registry struct {
	mu      sync.Mutex
	classes *ClassRegistry
	root    *Widget
	byPath  map[string]*Widget

	onAttrChange func(w *Widget, name string, old, new attr.Value)
	onCreate     func(w *Widget)
	onDestroy    func(w *Widget)
	onEvent      func(e *Event) // pre-dispatch interception (coupling hook)

	// pending holds queued attribute-change notifications; notifying marks
	// an active flush so re-entrant mutations drain through the outer one.
	pending   []attrChange
	notifying bool
}

// attrChange is one queued attribute-change notification.
type attrChange struct {
	w        *Widget
	name     string
	old, new attr.Value
}

// flushNotifications delivers queued attribute-change notifications. It must
// be called WITHOUT the registry lock held. Hooks run outside the lock and
// may mutate widgets; resulting notifications drain in the same flush.
func (r *Registry) flushNotifications() {
	r.mu.Lock()
	if r.notifying {
		r.mu.Unlock()
		return
	}
	r.notifying = true
	for len(r.pending) > 0 {
		c := r.pending[0]
		r.pending = r.pending[1:]
		h := r.onAttrChange
		r.mu.Unlock()
		if h != nil {
			h(c.w, c.name, c.old, c.new)
		}
		r.mu.Lock()
	}
	r.notifying = false
	r.mu.Unlock()
}

// NewRegistry returns a registry with a root form widget at "/" using the
// standard class set.
func NewRegistry() *Registry {
	return NewRegistryWithClasses(NewClassRegistry())
}

// NewRegistryWithClasses returns a registry using the given class registry.
func NewRegistryWithClasses(classes *ClassRegistry) *Registry {
	r := &Registry{classes: classes, byPath: make(map[string]*Widget)}
	rootClass, err := classes.Lookup("form")
	if err != nil {
		panic("widget: standard class set lacks form: " + err.Error())
	}
	r.root = &Widget{reg: r, class: rootClass, name: "", path: "/", attrs: rootClass.Defaults.Clone()}
	r.byPath["/"] = r.root
	return r
}

// Classes returns the class registry in use.
func (r *Registry) Classes() *ClassRegistry { return r.classes }

// Root returns the root widget.
func (r *Registry) Root() *Widget { return r.root }

// OnAttrChange installs the attribute-change hook (one per registry).
func (r *Registry) OnAttrChange(h func(w *Widget, name string, old, new attr.Value)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onAttrChange = h
}

// OnCreate installs the widget-creation hook.
func (r *Registry) OnCreate(h func(w *Widget)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onCreate = h
}

// OnDestroy installs the widget-destruction hook. It fires once per
// destroyed widget, leaves first.
func (r *Registry) OnDestroy(h func(w *Widget)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDestroy = h
}

// OnEvent installs the event-interception hook. When set, Dispatch routes
// every event through it *instead of* local processing; the hook decides
// whether to call Deliver (the coupling extension point). Hooks set by the
// coupling client make the toolkit multi-user without changing applications.
func (r *Registry) OnEvent(h func(e *Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = h
}

// JoinPath joins a parent path and a child name.
func JoinPath(parent, name string) string {
	if parent == "/" {
		return "/" + name
	}
	return parent + "/" + name
}

// ValidName reports whether s is a legal widget name (non-empty, no '/').
func ValidName(s string) bool {
	return s != "" && !strings.ContainsRune(s, '/')
}

// Create makes a new widget under the parent path. Attribute overrides are
// merged over the class defaults.
func (r *Registry) Create(parentPath, name, className string, overrides attr.Set) (*Widget, error) {
	class, err := r.classes.Lookup(className)
	if err != nil {
		return nil, err
	}
	if !ValidName(name) {
		return nil, fmt.Errorf("widget: invalid name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, ok := r.byPath[parentPath]
	if !ok {
		return nil, fmt.Errorf("%w: parent %q", ErrNotFound, parentPath)
	}
	if !parent.class.Container {
		return nil, fmt.Errorf("widget: class %q cannot contain children", parent.class.Name)
	}
	path := JoinPath(parentPath, name)
	if _, exists := r.byPath[path]; exists {
		return nil, fmt.Errorf("widget: %q already exists", path)
	}
	attrs := class.Defaults.Clone()
	attrs.Merge(overrides)
	w := &Widget{reg: r, class: class, name: name, path: path, parent: parent, attrs: attrs}
	parent.children = append(parent.children, w)
	r.byPath[path] = w
	hook := r.onCreate
	r.mu.Unlock()
	if hook != nil {
		hook(w)
	}
	r.mu.Lock()
	return w, nil
}

// MustCreate is Create for static UI construction; it panics on error.
func (r *Registry) MustCreate(parentPath, name, className string, overrides attr.Set) *Widget {
	w, err := r.Create(parentPath, name, className, overrides)
	if err != nil {
		panic(err)
	}
	return w
}

// Destroy removes the widget at path and its entire subtree. The destroy
// hook fires for every removed widget, leaves first — the coupling client
// uses it to apply the automatic decoupling of destroyed objects (§3.2).
func (r *Registry) Destroy(path string) error {
	r.mu.Lock()
	w, ok := r.byPath[path]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if w == r.root {
		r.mu.Unlock()
		return errors.New("widget: cannot destroy root")
	}
	var removed []*Widget
	var collect func(*Widget)
	collect = func(x *Widget) {
		for _, c := range x.children {
			collect(c)
		}
		removed = append(removed, x) // leaves first
	}
	collect(w)
	for _, x := range removed {
		x.dead = true
		delete(r.byPath, x.path)
	}
	// Unlink from parent.
	p := w.parent
	for i, c := range p.children {
		if c == w {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	hook := r.onDestroy
	r.mu.Unlock()
	if hook != nil {
		for _, x := range removed {
			hook(x)
		}
	}
	return nil
}

// Lookup returns the widget at path.
func (r *Registry) Lookup(path string) (*Widget, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byPath[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return w, nil
}

// Paths returns all live pathnames, sorted.
func (r *Registry) Paths() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	paths := make([]string, 0, len(r.byPath))
	for p := range r.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Walk visits the subtree rooted at path in depth-first pre-order.
func (r *Registry) Walk(path string, fn func(w *Widget) error) error {
	w, err := r.Lookup(path)
	if err != nil {
		return err
	}
	return walk(w, fn)
}

func walk(w *Widget, fn func(w *Widget) error) error {
	if err := fn(w); err != nil {
		return err
	}
	for _, c := range w.Children() {
		if err := walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Dispatch processes an event as if the user performed it: when an
// interception hook is installed (the multi-user extension) the event is
// handed to the hook; otherwise it is delivered locally.
func (r *Registry) Dispatch(e *Event) error {
	r.mu.Lock()
	hook := r.onEvent
	r.mu.Unlock()
	if hook != nil && !e.Remote {
		hook(e)
		return nil
	}
	_, err := r.Deliver(e)
	return err
}

// Deliver applies the event's built-in feedback and runs its callbacks
// locally. It rejects events on disabled or destroyed objects. Nothing takes
// back a delivered event, so Deliver builds no undo: the undo it returns is
// always nil (the result is kept for source compatibility), and a remote
// re-execution, which goes through here, allocates nothing for its feedback.
func (r *Registry) Deliver(e *Event) (undo func(), err error) {
	if _, _, _, err := r.feedback(e); err != nil {
		return nil, err
	}
	r.RunCallbacks(e)
	return nil, nil
}

// ApplyFeedback applies only the built-in syntactic feedback of the event
// and returns its undo function. The coupling client uses the split
// (feedback now, callbacks after the lock is granted) to implement the
// multiple-execution algorithm of §3.2, including "undo syntactic built-in
// feedback of the event e" when locking fails.
func (r *Registry) ApplyFeedback(e *Event) (undo func(), err error) {
	w, name, old, err := r.feedback(e)
	if err != nil {
		return nil, err
	}
	if w == nil || name == "" {
		return func() {}, nil
	}
	// Restoring the attribute mutates the widget, so the undo takes the lock
	// and flushes the change notification like any other mutation.
	return func() {
		r.mu.Lock()
		w.setAttr(name, old)
		r.mu.Unlock()
		r.flushNotifications()
	}, nil
}

// feedback checks that the event may run and applies its class's feedback,
// returning the widget and the attribute it overwrote with its old value; w
// is nil when the class has no feedback.
func (r *Registry) feedback(e *Event) (w *Widget, name string, old attr.Value, err error) {
	r.mu.Lock()
	w, err = r.target(e)
	if err != nil || w.class.Feedback == nil {
		r.mu.Unlock()
		return nil, "", attr.Value{}, err
	}
	name, old, err = w.class.Feedback(w, e)
	r.mu.Unlock()
	r.flushNotifications()
	if err != nil {
		return nil, "", attr.Value{}, err
	}
	return w, name, old, nil
}

// target returns the widget e occurs on, or why e may not run there. The
// caller holds the registry lock.
func (r *Registry) target(e *Event) (*Widget, error) {
	w, ok := r.byPath[e.Path]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, e.Path)
	case w.dead:
		return nil, fmt.Errorf("%w: %q", ErrDestroyed, e.Path)
	case w.disabled && !e.Remote:
		return nil, fmt.Errorf("%w: %q", ErrDisabled, e.Path)
	case !w.class.EmitsEvent(e.Name):
		return nil, fmt.Errorf("widget: class %q does not emit %q", w.class.Name, e.Name)
	}
	return w, nil
}

// RunCallbacks invokes the application callbacks registered for the event.
// Callbacks run without the registry lock so they may freely manipulate
// widgets.
func (r *Registry) RunCallbacks(e *Event) {
	r.mu.Lock()
	w, ok := r.byPath[e.Path]
	if !ok || w.dead {
		r.mu.Unlock()
		return
	}
	cbs := make([]Callback, len(w.cbs[e.Name]))
	copy(cbs, w.cbs[e.Name])
	r.mu.Unlock()
	for _, cb := range cbs {
		cb(e)
	}
}
