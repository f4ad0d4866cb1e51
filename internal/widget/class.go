// Package widget implements the headless user-interface toolkit that stands
// in for the paper's OSF/Motif-based CENTER toolbox.
//
// The coupling mechanism of the paper operates entirely on the toolkit
// surface: widget trees with hierarchical pathnames, typed attributes,
// high-level callback events, and built-in "syntactic" feedback that can be
// undone when a floor-control lock is denied. This package provides exactly
// that surface, without a display server: a primitive UI object is an
// instance of a pre-defined class (form, button, menu, ...), encapsulates
// low-level events, and exposes high-level interaction callbacks.
package widget

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"cosoft/internal/attr"
)

// Event names emitted by the built-in classes.
const (
	EventActivate = "activate" // button pressed
	EventChanged  = "changed"  // textfield value replaced
	EventEdit     = "edit"     // textarea splice edit
	EventToggled  = "toggled"  // toggle flipped
	EventSelect   = "select"   // menu/list selection
	EventMoved    = "moved"    // scale position
	EventDraw     = "draw"     // canvas stroke appended
	EventSpun     = "spun"     // spinbox stepped or set
)

// Common attribute names.
const (
	AttrLabel     = "label"
	AttrValue     = "value"
	AttrText      = "text"
	AttrState     = "state"
	AttrItems     = "items"
	AttrSelection = "selection"
	AttrPosition  = "position"
	AttrMin       = "min"
	AttrMax       = "max"
	AttrStrokes   = "strokes"
	AttrWidth     = "width"
	AttrHeight    = "height"
	AttrFg        = "foreground"
	AttrBg        = "background"
	AttrFont      = "font"
	AttrTitle     = "title"
)

// FeedbackFunc applies the built-in syntactic feedback of an event to a
// widget, overwriting one attribute, and reports that attribute's name and
// the value it held before: restoring it undoes the feedback. It returns an
// error, and changes nothing, when the event arguments do not fit the class;
// a feedback that changed nothing reports an empty name.
//
// Reporting what to restore instead of returning an undo closure keeps the
// remote re-execution of an event free of allocations: only the origin,
// whose feedback a denied lock takes back, builds an undo (ApplyFeedback).
//
// It runs under the registry's mutex, so it must not block: a coupling
// client's read loop takes that mutex to disable and re-enable objects.
type FeedbackFunc func(w *Widget, e *Event) (name string, old attr.Value, err error)

// Class describes a pre-defined UI object type: its default attributes, the
// subset of attributes that are *relevant* for coupling (made identical when
// instances are coupled, §3.1), and the callback events it emits.
type Class struct {
	// Name identifies the class ("button", "form", ...).
	Name string
	// Defaults holds the initial attribute values of new instances.
	Defaults attr.Set
	// Relevant lists the attributes shared when objects of this class are
	// coupled or copied. Presentation attributes (size, font, colors) are
	// deliberately not relevant: "two text input fields may have different
	// size and fonts, but just share the same content".
	Relevant []string
	// Events lists the callback event names instances emit.
	Events []string
	// Container reports whether instances may have children.
	Container bool
	// Feedback applies built-in syntactic feedback; nil means events carry
	// no state change.
	Feedback FeedbackFunc
}

// EmitsEvent reports whether the class declares the named event.
func (c *Class) EmitsEvent(name string) bool {
	for _, e := range c.Events {
		if e == name {
			return true
		}
	}
	return false
}

// IsRelevant reports whether the named attribute is in the class's relevant
// set.
func (c *Class) IsRelevant(name string) bool {
	for _, r := range c.Relevant {
		if r == name {
			return true
		}
	}
	return false
}

// ClassRegistry maps class names to definitions. A registry is shared by all
// application instances of a process; RegisterClass may be called during
// initialization to add application-specific classes.
type ClassRegistry struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewClassRegistry returns a registry pre-populated with the standard
// classes.
func NewClassRegistry() *ClassRegistry {
	r := &ClassRegistry{classes: make(map[string]*Class)}
	for _, c := range standardClasses() {
		r.classes[c.Name] = c
	}
	return r
}

// Register adds a class definition. It returns an error when the name is
// already taken.
func (r *ClassRegistry) Register(c *Class) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("widget: invalid class")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.classes[c.Name]; ok {
		return fmt.Errorf("widget: class %q already registered", c.Name)
	}
	r.classes[c.Name] = c
	return nil
}

// Lookup returns the class definition for name.
func (r *ClassRegistry) Lookup(name string) (*Class, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.classes[name]
	if !ok {
		return nil, fmt.Errorf("widget: unknown class %q", name)
	}
	return c, nil
}

// Names returns the registered class names, sorted.
func (r *ClassRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func standardClasses() []*Class {
	return []*Class{
		{
			Name:      "form",
			Defaults:  attr.Set{AttrTitle: attr.String(""), AttrWidth: attr.Int(400), AttrHeight: attr.Int(300), AttrBg: attr.Color("gray")},
			Relevant:  []string{AttrTitle},
			Container: true,
		},
		{
			Name:     "label",
			Defaults: attr.Set{AttrLabel: attr.String(""), AttrFont: attr.String("fixed"), AttrFg: attr.Color("black")},
			Relevant: []string{AttrLabel},
		},
		{
			Name:     "separator",
			Defaults: attr.Set{AttrWidth: attr.Int(1)},
		},
		{
			Name:     "button",
			Defaults: attr.Set{AttrLabel: attr.String("Button"), AttrFont: attr.String("fixed"), AttrFg: attr.Color("black"), AttrBg: attr.Color("lightgray")},
			Relevant: []string{AttrLabel},
			Events:   []string{EventActivate},
		},
		{
			Name:     "textfield",
			Defaults: attr.Set{AttrValue: attr.String(""), AttrWidth: attr.Int(20), AttrFont: attr.String("fixed")},
			Relevant: []string{AttrValue},
			Events:   []string{EventChanged},
			Feedback: textfieldFeedback,
		},
		{
			Name:     "textarea",
			Defaults: attr.Set{AttrText: attr.String(""), AttrWidth: attr.Int(80), AttrHeight: attr.Int(24), AttrFont: attr.String("fixed")},
			Relevant: []string{AttrText},
			Events:   []string{EventEdit},
			Feedback: textareaFeedback,
		},
		{
			Name:     "toggle",
			Defaults: attr.Set{AttrLabel: attr.String(""), AttrState: attr.Bool(false)},
			Relevant: []string{AttrState},
			Events:   []string{EventToggled},
			Feedback: toggleFeedback,
		},
		{
			Name:     "menu",
			Defaults: attr.Set{AttrItems: attr.StringList(), AttrSelection: attr.String("")},
			Relevant: []string{AttrItems, AttrSelection},
			Events:   []string{EventSelect},
			Feedback: selectFeedback,
		},
		{
			Name:     "list",
			Defaults: attr.Set{AttrItems: attr.StringList(), AttrSelection: attr.String(""), AttrHeight: attr.Int(10)},
			Relevant: []string{AttrItems, AttrSelection},
			Events:   []string{EventSelect},
			Feedback: selectFeedback,
		},
		{
			Name:     "scale",
			Defaults: attr.Set{AttrPosition: attr.Int(0), AttrMin: attr.Int(0), AttrMax: attr.Int(100)},
			Relevant: []string{AttrPosition},
			Events:   []string{EventMoved},
			Feedback: scaleFeedback,
		},
		{
			Name:     "radiogroup",
			Defaults: attr.Set{AttrItems: attr.StringList(), AttrSelection: attr.String("")},
			Relevant: []string{AttrItems, AttrSelection},
			Events:   []string{EventSelect},
			Feedback: radioFeedback,
		},
		{
			Name:     "spinbox",
			Defaults: attr.Set{AttrValue: attr.String("0"), AttrMin: attr.Int(0), AttrMax: attr.Int(100)},
			Relevant: []string{AttrValue},
			Events:   []string{EventSpun},
			Feedback: spinboxFeedback,
		},
		{
			Name:     "progress",
			Defaults: attr.Set{AttrPosition: attr.Int(0), AttrMax: attr.Int(100)},
			Relevant: []string{AttrPosition},
		},
		{
			Name:     "canvas",
			Defaults: attr.Set{AttrStrokes: attr.PointList(), AttrWidth: attr.Int(640), AttrHeight: attr.Int(480), AttrBg: attr.Color("white")},
			Relevant: []string{AttrStrokes},
			Events:   []string{EventDraw},
			Feedback: canvasFeedback,
		},
	}
}

func textfieldFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindString {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one string arg", EventChanged)
	}
	old := w.attrs.Get(AttrValue)
	w.setAttr(AttrValue, e.Args[0])
	return AttrValue, old, nil
}

// textareaFeedback splices text: args are [pos int, deleteCount int,
// insert string].
func textareaFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 3 ||
		e.Args[0].Kind() != attr.KindInt ||
		e.Args[1].Kind() != attr.KindInt ||
		e.Args[2].Kind() != attr.KindString {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants (int, int, string) args", EventEdit)
	}
	text := w.attrs.Get(AttrText).AsString()
	pos := int(e.Args[0].AsInt())
	del := int(e.Args[1].AsInt())
	ins := e.Args[2].AsString()
	if pos < 0 || pos > len(text) || del < 0 || pos+del > len(text) {
		return "", attr.Value{}, fmt.Errorf("widget: edit splice (%d,%d) out of range for %d bytes", pos, del, len(text))
	}
	old := w.attrs.Get(AttrText)
	w.setAttr(AttrText, attr.String(text[:pos]+ins+text[pos+del:]))
	return AttrText, old, nil
}

func toggleFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	old := w.attrs.Get(AttrState)
	w.setAttr(AttrState, attr.Bool(!old.AsBool()))
	return AttrState, old, nil
}

func selectFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindString {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one string arg", EventSelect)
	}
	old := w.attrs.Get(AttrSelection)
	w.setAttr(AttrSelection, e.Args[0])
	return AttrSelection, old, nil
}

func scaleFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindInt {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one int arg", EventMoved)
	}
	pos := e.Args[0].AsInt()
	if min := w.attrs.Get(AttrMin).AsInt(); pos < min {
		pos = min
	}
	if max := w.attrs.Get(AttrMax).AsInt(); pos > max {
		pos = max
	}
	old := w.attrs.Get(AttrPosition)
	w.setAttr(AttrPosition, attr.Int(pos))
	return AttrPosition, old, nil
}

// canvasFeedback appends a stroke (a point list) to the strokes attribute.
func canvasFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindPointList {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one point-list arg", EventDraw)
	}
	old := w.attrs.Get(AttrStrokes)
	pts := append(old.AsPointList(), e.Args[0].AsPointList()...)
	w.setAttr(AttrStrokes, attr.PointList(pts...))
	return AttrStrokes, old, nil
}

// radioFeedback is selectFeedback restricted to the declared items: a
// radio group rejects selections outside its item list.
func radioFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindString {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one string arg", EventSelect)
	}
	sel := e.Args[0].AsString()
	found := false
	for _, item := range w.attrs.Get(AttrItems).AsStringList() {
		if item == sel {
			found = true
			break
		}
	}
	if !found {
		return "", attr.Value{}, fmt.Errorf("widget: %q is not an item of %s", sel, w.Path())
	}
	old := w.attrs.Get(AttrSelection)
	w.setAttr(AttrSelection, e.Args[0])
	return AttrSelection, old, nil
}

// spinboxFeedback steps the numeric value by the int argument, clamped to
// [min, max]. The value attribute stays a string (it is a text entry in the
// original toolkit) but must parse as an integer.
func spinboxFeedback(w *Widget, e *Event) (string, attr.Value, error) {
	if len(e.Args) != 1 || e.Args[0].Kind() != attr.KindInt {
		return "", attr.Value{}, fmt.Errorf("widget: %s wants one int arg", EventSpun)
	}
	cur, err := strconv.ParseInt(w.attrs.Get(AttrValue).AsString(), 10, 64)
	if err != nil {
		cur = 0
	}
	next := cur + e.Args[0].AsInt()
	if min := w.attrs.Get(AttrMin).AsInt(); next < min {
		next = min
	}
	if max := w.attrs.Get(AttrMax).AsInt(); next > max {
		next = max
	}
	old := w.attrs.Get(AttrValue)
	w.setAttr(AttrValue, attr.String(strconv.FormatInt(next, 10)))
	return AttrValue, old, nil
}
