// Package tori implements TORI, the "Task-Oriented database Retrieval
// Interface" the paper converted to a cooperative application (§4): query
// and result forms generated from high-level descriptions, operator menus,
// view selection, query invocation, and partial instantiation of new queries
// from result rows.
//
// Coupling TORI instances synchronizes the *forms*, not the results: a
// coupled query re-executes in every participant's environment against that
// participant's own database — "multiple evaluation is more flexible in that
// it allows queries to be different ... also, queries can be sent to
// different databases."
package tori

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"cosoft/internal/attr"
	"cosoft/internal/db"
	"cosoft/internal/widget"
)

// AttrDesc describes one query attribute of the form.
type AttrDesc struct {
	// Name is the database column.
	Name string
	// Label is the human caption.
	Label string
}

// FormDesc is the high-level description TORI generates its forms from.
type FormDesc struct {
	// Title captions the query form.
	Title string
	// Table is the database relation queried.
	Table string
	// Attributes lists the query attributes in display order.
	Attributes []AttrDesc
	// Views maps view names to attribute subsets ("a set of query
	// attributes"); the "all" view always exists.
	Views map[string][]string
	// Limit bounds result rows (0 = 100).
	Limit int
}

// App is one TORI application instance.
type App struct {
	reg      *widget.Registry
	database *db.DB
	desc     FormDesc

	queriesRun  atomic.Int64
	rowsFound   atomic.Int64
	rowsScanned atomic.Int64
}

// Paths of the generated UI objects.
const (
	QueryPath  = "/query"
	ResultPath = "/result"
)

// New generates the query and result forms and wires the retrieval logic.
func New(database *db.DB, desc FormDesc) (*App, error) {
	if len(desc.Attributes) == 0 {
		return nil, errors.New("tori: form needs at least one attribute")
	}
	if desc.Limit == 0 {
		desc.Limit = 100
	}
	a := &App{reg: widget.NewRegistry(), database: database, desc: desc}
	if err := a.buildForms(); err != nil {
		return nil, err
	}
	return a, nil
}

// buildForms generates the widget trees from the form description.
func (a *App) buildForms() error {
	ops := make([]string, 0, len(db.Ops()))
	for _, op := range db.Ops() {
		ops = append(ops, string(op))
	}
	query, err := a.reg.Create("/", "query", "form",
		attr.Set{widget.AttrTitle: attr.String(a.desc.Title)})
	if err != nil {
		return err
	}
	views := append([]string{"all"}, a.viewNames()...)
	if _, err := a.reg.Create(query.Path(), "view", "menu", attr.Set{
		widget.AttrItems:     attr.StringList(views...),
		widget.AttrSelection: attr.String("all"),
	}); err != nil {
		return err
	}
	for _, ad := range a.desc.Attributes {
		group, err := a.reg.Create(query.Path(), "a_"+ad.Name, "form",
			attr.Set{widget.AttrTitle: attr.String(ad.Label)})
		if err != nil {
			return err
		}
		if _, err := a.reg.Create(group.Path(), "caption", "label",
			attr.Set{widget.AttrLabel: attr.String(ad.Label)}); err != nil {
			return err
		}
		if _, err := a.reg.Create(group.Path(), "op", "menu", attr.Set{
			widget.AttrItems:     attr.StringList(ops...),
			widget.AttrSelection: attr.String(string(db.OpEq)),
		}); err != nil {
			return err
		}
		if _, err := a.reg.Create(group.Path(), "value", "textfield", nil); err != nil {
			return err
		}
	}
	goBtn, err := a.reg.Create(query.Path(), "go", "button",
		attr.Set{widget.AttrLabel: attr.String("Search")})
	if err != nil {
		return err
	}
	if err := goBtn.AddCallback(widget.EventActivate, func(*widget.Event) {
		a.runQuery()
	}); err != nil {
		return err
	}

	result, err := a.reg.Create("/", "result", "form",
		attr.Set{widget.AttrTitle: attr.String(a.desc.Title + " — results")})
	if err != nil {
		return err
	}
	if _, err := a.reg.Create(result.Path(), "rows", "list",
		attr.Set{widget.AttrItems: attr.StringList()}); err != nil {
		return err
	}
	if _, err := a.reg.Create(result.Path(), "count", "label",
		attr.Set{widget.AttrLabel: attr.String("no query yet")}); err != nil {
		return err
	}
	newBtn, err := a.reg.Create(result.Path(), "newquery", "button",
		attr.Set{widget.AttrLabel: attr.String("New query from selection")})
	if err != nil {
		return err
	}
	if err := newBtn.AddCallback(widget.EventActivate, func(*widget.Event) {
		a.instantiateFromSelection()
	}); err != nil {
		return err
	}
	return nil
}

func (a *App) viewNames() []string {
	names := make([]string, 0, len(a.desc.Views))
	for n := range a.desc.Views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry exposes the application's widget tree.
func (a *App) Registry() *widget.Registry { return a.reg }

// Database exposes the instance's database (each participant may use a
// different one).
func (a *App) Database() *db.DB { return a.database }

// fieldPath returns the textfield path of a query attribute.
func fieldPath(name string) string { return QueryPath + "/a_" + name + "/value" }

// opPath returns the operator-menu path of a query attribute.
func opPath(name string) string { return QueryPath + "/a_" + name + "/op" }

// SetField types a value into a query attribute (a high-level 'changed'
// event that replicates when coupled).
func (a *App) SetField(name, value string) error {
	return a.reg.Dispatch(&widget.Event{
		Path: fieldPath(name), Name: widget.EventChanged,
		Args: []attr.Value{attr.String(value)},
	})
}

// SetOp selects a comparison operator for a query attribute.
func (a *App) SetOp(name string, op db.Op) error {
	return a.reg.Dispatch(&widget.Event{
		Path: opPath(name), Name: widget.EventSelect,
		Args: []attr.Value{attr.String(string(op))},
	})
}

// SelectView picks a named attribute subset.
func (a *App) SelectView(view string) error {
	return a.reg.Dispatch(&widget.Event{
		Path: QueryPath + "/view", Name: widget.EventSelect,
		Args: []attr.Value{attr.String(view)},
	})
}

// Submit invokes the query (the synchronized invocation of §4).
func (a *App) Submit() error {
	return a.reg.Dispatch(&widget.Event{Path: QueryPath + "/go", Name: widget.EventActivate})
}

// activeAttrs returns the attribute names of the current view.
func (a *App) activeAttrs() []string {
	view := "all"
	if w, err := a.reg.Lookup(QueryPath + "/view"); err == nil {
		view = w.Attr(widget.AttrSelection).AsString()
	}
	if view == "all" || a.desc.Views[view] == nil {
		names := make([]string, len(a.desc.Attributes))
		for i, ad := range a.desc.Attributes {
			names[i] = ad.Name
		}
		return names
	}
	return a.desc.Views[view]
}

// buildQuery reads the form state into a database query.
func (a *App) buildQuery() db.Query {
	q := db.Query{Table: a.desc.Table, Limit: a.desc.Limit}
	for _, name := range a.activeAttrs() {
		w, err := a.reg.Lookup(fieldPath(name))
		if err != nil {
			continue
		}
		value := w.Attr(widget.AttrValue).AsString()
		if value == "" {
			continue
		}
		op := db.OpEq
		if ow, err := a.reg.Lookup(opPath(name)); err == nil {
			if sel := ow.Attr(widget.AttrSelection).AsString(); sel != "" {
				op = db.Op(sel)
			}
		}
		q.Where = append(q.Where, db.Predicate{Column: name, Op: op, Value: value})
	}
	return q
}

// runQuery executes the current form against the local database and fills
// the result form. It runs in every coupled environment, implementing
// multiple evaluation.
func (a *App) runQuery() {
	a.queriesRun.Add(1)
	res, err := a.database.Run(a.buildQuery())
	countLabel, lerr := a.reg.Lookup(ResultPath + "/count")
	if err != nil {
		if lerr == nil {
			countLabel.SetAttr(widget.AttrLabel, attr.String("error: "+err.Error()))
		}
		return
	}
	a.rowsFound.Add(int64(len(res.Rows)))
	a.rowsScanned.Add(int64(res.Scanned))
	items := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		items[i] = strings.Join(row, " | ")
	}
	if rows, err := a.reg.Lookup(ResultPath + "/rows"); err == nil {
		rows.SetAttr(widget.AttrItems, attr.StringList(items...))
	}
	if lerr == nil {
		countLabel.SetAttr(widget.AttrLabel, attr.String(fmt.Sprintf("%d rows", len(res.Rows))))
	}
}

// SelectResult picks a result row (a high-level 'select' event).
func (a *App) SelectResult(row string) error {
	return a.reg.Dispatch(&widget.Event{
		Path: ResultPath + "/rows", Name: widget.EventSelect,
		Args: []attr.Value{attr.String(row)},
	})
}

// NewQueryFromSelection uses the selected result row "to partially
// instantiate new query forms" (§4).
func (a *App) NewQueryFromSelection() error {
	return a.reg.Dispatch(&widget.Event{Path: ResultPath + "/newquery", Name: widget.EventActivate})
}

// instantiateFromSelection fills the query fields from the selected result
// row.
func (a *App) instantiateFromSelection() {
	rows, err := a.reg.Lookup(ResultPath + "/rows")
	if err != nil {
		return
	}
	selected := rows.Attr(widget.AttrSelection).AsString()
	if selected == "" {
		return
	}
	cells := strings.Split(selected, " | ")
	for i, ad := range a.desc.Attributes {
		if i >= len(cells) {
			break
		}
		if w, err := a.reg.Lookup(fieldPath(ad.Name)); err == nil {
			w.SetAttr(widget.AttrValue, attr.String(cells[i]))
		}
		if ow, err := a.reg.Lookup(opPath(ad.Name)); err == nil {
			ow.SetAttr(widget.AttrSelection, attr.String(string(db.OpEq)))
		}
	}
}

// ResultRows returns the current result list items.
func (a *App) ResultRows() []string {
	w, err := a.reg.Lookup(ResultPath + "/rows")
	if err != nil {
		return nil
	}
	return w.Attr(widget.AttrItems).AsStringList()
}

// Field returns the current value of a query attribute field.
func (a *App) Field(name string) string {
	w, err := a.reg.Lookup(fieldPath(name))
	if err != nil {
		return ""
	}
	return w.Attr(widget.AttrValue).AsString()
}

// QueriesRun returns the number of query evaluations performed in this
// environment (each coupled Submit re-executes here).
func (a *App) QueriesRun() int64 { return a.queriesRun.Load() }

// RowsFound returns the cumulative result rows produced in this environment.
func (a *App) RowsFound() int64 { return a.rowsFound.Load() }

// RowsScanned returns the cumulative database rows the evaluations in this
// environment examined (db.Result.Scanned): their cost, free of timing noise.
func (a *App) RowsScanned() int64 { return a.rowsScanned.Load() }
