// Package db implements the small in-memory relational engine behind the
// TORI application ("Task-Oriented database Retrieval Interface", §4). It
// supports exactly the retrieval surface TORI synchronizes between users:
// typed columns, the comparison operators offered in TORI's operator menus
// (eq, ne, substring, prefix, like-one-of, lt, gt), conjunctive queries,
// hash indexes for equality, and deterministic results.
package db

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ColKind is a column type.
type ColKind uint8

// Column kinds.
const (
	KindString ColKind = iota + 1
	KindInt
)

// Column describes one table column.
type Column struct {
	Name string
	Kind ColKind
}

// Op is a comparison operator, matching TORI's operator menus.
type Op string

// Supported comparison operators.
const (
	OpEq        Op = "eq"
	OpNe        Op = "ne"
	OpSubstring Op = "substring"
	OpPrefix    Op = "prefix"
	OpLikeOneOf Op = "like-one-of"
	OpLT        Op = "lt"
	OpGT        Op = "gt"
)

// Ops lists all operators in menu order.
func Ops() []Op {
	return []Op{OpEq, OpNe, OpSubstring, OpPrefix, OpLikeOneOf, OpLT, OpGT}
}

// Predicate is one conjunct of a query: column OP value. For OpLikeOneOf,
// Value holds comma-separated alternatives.
type Predicate struct {
	Column string
	Op     Op
	Value  string
}

// Query is a conjunctive selection with projection and an optional limit.
type Query struct {
	Table  string
	Where  []Predicate
	Select []string // empty = all columns
	Limit  int      // 0 = unlimited
}

// Result is a deterministic query result.
type Result struct {
	Columns []string
	Rows    [][]string
	// Scanned counts the rows examined (index hits reduce it) — the cost
	// metric of the TORI coupling experiment.
	Scanned int
}

// Table is one relation.
type table struct {
	columns []Column
	colIdx  map[string]int
	rows    [][]string
	// indexes maps column name -> value -> row numbers.
	indexes map[string]map[string][]int
}

// DB is an in-memory database. The zero value is not usable; call New.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable defines a new relation.
func (d *DB) CreateTable(name string, columns []Column) error {
	if name == "" || len(columns) == 0 {
		return errors.New("db: table needs a name and columns")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[name]; ok {
		return fmt.Errorf("db: table %q exists", name)
	}
	t := &table{
		columns: append([]Column(nil), columns...),
		colIdx:  make(map[string]int, len(columns)),
		indexes: make(map[string]map[string][]int),
	}
	for i, c := range columns {
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("db: duplicate column %q", c.Name)
		}
		t.colIdx[c.Name] = i
	}
	d.tables[name] = t
	return nil
}

// Insert appends one row; values are positional.
func (d *DB) Insert(tableName string, values ...string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[tableName]
	if !ok {
		return fmt.Errorf("db: no table %q", tableName)
	}
	if len(values) != len(t.columns) {
		return fmt.Errorf("db: table %q wants %d values, got %d", tableName, len(t.columns), len(values))
	}
	for i, c := range t.columns {
		if c.Kind == KindInt {
			if _, err := strconv.ParseInt(values[i], 10, 64); err != nil {
				return fmt.Errorf("db: column %q wants an integer, got %q", c.Name, values[i])
			}
		}
	}
	row := append([]string(nil), values...)
	rowNum := len(t.rows)
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		v := row[t.colIdx[col]]
		idx[v] = append(idx[v], rowNum)
	}
	return nil
}

// CreateIndex builds a hash index over one column for equality predicates.
func (d *DB) CreateIndex(tableName, column string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[tableName]
	if !ok {
		return fmt.Errorf("db: no table %q", tableName)
	}
	ci, ok := t.colIdx[column]
	if !ok {
		return fmt.Errorf("db: no column %q", column)
	}
	idx := make(map[string][]int)
	for i, row := range t.rows {
		idx[row[ci]] = append(idx[row[ci]], i)
	}
	t.indexes[column] = idx
	return nil
}

// Tables returns the table names, sorted.
func (d *DB) Tables() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Columns returns a table's column definitions.
func (d *DB) Columns(tableName string) ([]Column, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", tableName)
	}
	return append([]Column(nil), t.columns...), nil
}

// Len returns a table's row count.
func (d *DB) Len(tableName string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if t, ok := d.tables[tableName]; ok {
		return len(t.rows)
	}
	return 0
}

// Run executes a query.
func (d *DB) Run(q Query) (Result, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[q.Table]
	if !ok {
		return Result{}, fmt.Errorf("db: no table %q", q.Table)
	}
	// Validate predicates and projection.
	for _, p := range q.Where {
		if _, ok := t.colIdx[p.Column]; !ok {
			return Result{}, fmt.Errorf("db: no column %q", p.Column)
		}
	}
	selectCols := q.Select
	if len(selectCols) == 0 {
		selectCols = make([]string, len(t.columns))
		for i, c := range t.columns {
			selectCols[i] = c.Name
		}
	}
	projIdx := make([]int, len(selectCols))
	for i, c := range selectCols {
		ci, ok := t.colIdx[c]
		if !ok {
			return Result{}, fmt.Errorf("db: no column %q", c)
		}
		projIdx[i] = ci
	}

	// Planner: use a hash index for the first indexed equality predicate,
	// else scan the rows in place.
	bucket, indexed := t.indexBucket(q.Where)
	n := len(t.rows)
	if indexed {
		n = len(bucket)
	}
	res := Result{Columns: selectCols}
	for i := 0; i < n; i++ {
		row := t.rows[i]
		if indexed {
			row = t.rows[bucket[i]]
		}
		res.Scanned++
		if !t.matches(row, q.Where) {
			continue
		}
		projected := make([]string, len(projIdx))
		for i, ci := range projIdx {
			projected[i] = row[ci]
		}
		res.Rows = append(res.Rows, projected)
		if q.Limit > 0 && len(res.Rows) >= q.Limit {
			break
		}
	}
	return res, nil
}

// indexBucket returns the row numbers the hash index of the first indexed
// equality predicate holds for its value, and false when no predicate is
// indexed: then every row is a candidate.
func (t *table) indexBucket(where []Predicate) ([]int, bool) {
	for _, p := range where {
		if p.Op != OpEq {
			continue
		}
		if idx, ok := t.indexes[p.Column]; ok {
			return idx[p.Value], true
		}
	}
	return nil, false
}

func (t *table) matches(row []string, where []Predicate) bool {
	for _, p := range where {
		ci := t.colIdx[p.Column]
		if !evalPredicate(row[ci], p, t.columns[ci].Kind) {
			return false
		}
	}
	return true
}

func evalPredicate(cell string, p Predicate, kind ColKind) bool {
	switch p.Op {
	case OpEq:
		return cell == p.Value
	case OpNe:
		return cell != p.Value
	case OpSubstring:
		return strings.Contains(cell, p.Value)
	case OpPrefix:
		return strings.HasPrefix(cell, p.Value)
	case OpLikeOneOf:
		for _, alt := range strings.Split(p.Value, ",") {
			if cell == strings.TrimSpace(alt) {
				return true
			}
		}
		return false
	case OpLT, OpGT:
		if kind == KindInt {
			a, err1 := strconv.ParseInt(cell, 10, 64)
			b, err2 := strconv.ParseInt(p.Value, 10, 64)
			if err1 != nil || err2 != nil {
				return false
			}
			if p.Op == OpLT {
				return a < b
			}
			return a > b
		}
		if p.Op == OpLT {
			return cell < p.Value
		}
		return cell > p.Value
	default:
		return false
	}
}
