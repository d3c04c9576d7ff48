// Package rel is a small in-memory relational store with a bridge into
// heterogeneous information networks. Section 8 of the paper observes that
// "it is also possible to apply our query-based outlier detection idea on
// traditional relational databases"; this package makes that concrete:
// entity tables become vertex types, foreign keys and junction tables
// become links, and from there every outlier query in the OQL language
// runs unchanged.
//
// The store is deliberately minimal — typed columns, primary keys, foreign
// keys, insertion and integrity checking — because its purpose is the
// schema bridge, not general SQL processing.
package rel

import (
	"fmt"
)

// ColumnType is the type of a column.
type ColumnType int

// Supported column types.
const (
	// TextCol holds strings.
	TextCol ColumnType = iota
	// IntCol holds int64 values.
	IntCol
	// FloatCol holds float64 values.
	FloatCol
)

func (t ColumnType) String() string {
	switch t {
	case TextCol:
		return "text"
	case IntCol:
		return "int"
	case FloatCol:
		return "float"
	}
	return fmt.Sprintf("ColumnType(%d)", int(t))
}

// Column declares one column of a table.
type Column struct {
	Name string
	Type ColumnType
	// References names a target table when this column is a foreign key
	// ("" otherwise). Foreign keys reference the target's primary key.
	References string
}

// TableDef declares a table.
type TableDef struct {
	Name string
	// Key is the primary-key column name; it must be one of Columns and of
	// type TextCol or IntCol.
	Key     string
	Columns []Column
}

// Value is a cell value: string, int64 or float64 matching the column type.
type Value any

// Row is a map from column name to value.
type Row map[string]Value

// Table is a populated table.
type Table struct {
	def    TableDef
	colIdx map[string]int
	rows   [][]Value
	byKey  map[string]int // primary key (stringified) -> row index
	keyCol int
	fkCols []int // indices of foreign-key columns
	fkRefs []string
}

// DB is an in-memory relational database.
type DB struct {
	tables map[string]*Table
	order  []string // creation order, for deterministic iteration
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable adds a table to the database.
func (db *DB) CreateTable(def TableDef) (*Table, error) {
	if def.Name == "" {
		return nil, fmt.Errorf("rel: table needs a name")
	}
	if _, dup := db.tables[def.Name]; dup {
		return nil, fmt.Errorf("rel: table %q already exists", def.Name)
	}
	if len(def.Columns) == 0 {
		return nil, fmt.Errorf("rel: table %q needs at least one column", def.Name)
	}
	t := &Table{
		def:    def,
		colIdx: make(map[string]int, len(def.Columns)),
		byKey:  make(map[string]int),
		keyCol: -1,
	}
	for i, c := range def.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("rel: table %q has an unnamed column", def.Name)
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("rel: table %q has duplicate column %q", def.Name, c.Name)
		}
		t.colIdx[c.Name] = i
		if c.References != "" {
			t.fkCols = append(t.fkCols, i)
			t.fkRefs = append(t.fkRefs, c.References)
		}
		if c.Name == def.Key {
			if c.Type == FloatCol {
				return nil, fmt.Errorf("rel: table %q: float primary keys are not supported", def.Name)
			}
			t.keyCol = i
		}
	}
	if def.Key != "" && t.keyCol < 0 {
		return nil, fmt.Errorf("rel: table %q: key column %q not declared", def.Name, def.Key)
	}
	db.tables[def.Name] = t
	db.order = append(db.order, def.Name)
	return t, nil
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns the table names in creation order.
func (db *DB) TableNames() []string {
	return append([]string(nil), db.order...)
}

// Insert adds a row. Missing columns are rejected; values must match the
// declared column types; primary keys must be unique.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.def.Columns) {
		return fmt.Errorf("rel: %s: row has %d values, table has %d columns", t.def.Name, len(r), len(t.def.Columns))
	}
	vals := make([]Value, len(t.def.Columns))
	for name, v := range r {
		i, ok := t.colIdx[name]
		if !ok {
			return fmt.Errorf("rel: %s: unknown column %q", t.def.Name, name)
		}
		if err := checkType(v, t.def.Columns[i].Type); err != nil {
			return fmt.Errorf("rel: %s.%s: %w", t.def.Name, name, err)
		}
		vals[i] = v
	}
	if t.keyCol >= 0 {
		k := keyString(vals[t.keyCol])
		if _, dup := t.byKey[k]; dup {
			return fmt.Errorf("rel: %s: duplicate primary key %q", t.def.Name, k)
		}
		t.byKey[k] = len(t.rows)
	}
	t.rows = append(t.rows, vals)
	return nil
}

// MustInsert is Insert panicking on error, for fixtures.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// Lookup finds a row index by primary key.
func (t *Table) Lookup(key Value) (int, bool) {
	i, ok := t.byKey[keyString(key)]
	return i, ok
}

// Validate checks referential integrity: every foreign-key value must
// resolve in the referenced table (or be nil for optional references).
func (db *DB) Validate() error {
	for _, name := range db.order {
		t := db.tables[name]
		for k, ci := range t.fkCols {
			target, ok := db.tables[t.fkRefs[k]]
			if !ok {
				return fmt.Errorf("rel: %s.%s references unknown table %q",
					name, t.def.Columns[ci].Name, t.fkRefs[k])
			}
			if target.keyCol < 0 {
				return fmt.Errorf("rel: %s.%s references table %q which has no primary key",
					name, t.def.Columns[ci].Name, t.fkRefs[k])
			}
			for ri, row := range t.rows {
				if row[ci] == nil {
					continue
				}
				if _, ok := target.Lookup(row[ci]); !ok {
					return fmt.Errorf("rel: %s row %d: dangling foreign key %s=%v",
						name, ri, t.def.Columns[ci].Name, row[ci])
				}
			}
		}
	}
	return nil
}

func checkType(v Value, want ColumnType) error {
	if v == nil {
		return nil // nullable everywhere except primary keys (checked at Insert)
	}
	switch want {
	case TextCol:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want text, got %T", v)
		}
	case IntCol:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("want int64, got %T", v)
		}
	case FloatCol:
		if _, ok := v.(float64); !ok {
			return fmt.Errorf("want float64, got %T", v)
		}
	}
	return nil
}

func keyString(v Value) string {
	switch x := v.(type) {
	case string:
		return "s:" + x
	case int64:
		return fmt.Sprintf("i:%d", x)
	default:
		return fmt.Sprintf("?:%v", v)
	}
}
