// Package storage implements the per-node store backing each simulated
// SQL Server instance: base tables loaded at appliance construction and
// temp tables materialized by DMS operations (paper §2.3). A table is held
// in one form — an immutable columnar vec.Table that an insert replaces
// and never mutates, so scans share it under the read lock. Inserts take
// columns (BulkInsert is the row-shaped adapter for loading) and are
// metered in bytes so the cost model can be calibrated against observed
// writer/bulk-copy work.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"pdwqo/internal/catalog"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// table is one stored table: its name and the published columns.
type table struct {
	name  string
	names []string   // column names, fixed at Create
	data  *vec.Table // replaced whole by an insert; never mutated once set
}

// DB is a node-local database instance.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table

	// BytesWritten meters bulk-insert volume for cost calibration.
	BytesWritten int64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*table{}}
}

// Create registers an empty table; creating an existing name fails.
func (db *DB) Create(name string, cols []catalog.Column) error {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("storage: table %q already exists", name)
	}
	db.tables[key] = &table{name: name, names: names, data: vec.FromRows(names, nil)}
	return nil
}

// Drop removes a table if present.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
}

// Rename atomically republishes a table under a new name — the publish
// half of the engine's stage-then-rename DMS delivery. Renaming a missing
// table or onto an existing name fails, so a retried delivery must drop
// its leftovers first.
func (db *DB) Rename(oldName, newName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	oldKey, newKey := strings.ToLower(oldName), strings.ToLower(newName)
	t, ok := db.tables[oldKey]
	if !ok {
		return fmt.Errorf("storage: unknown table %q", oldName)
	}
	if _, ok := db.tables[newKey]; ok {
		return fmt.Errorf("storage: table %q already exists", newName)
	}
	delete(db.tables, oldKey)
	t.name = newName
	db.tables[newKey] = t
	return nil
}

// BulkInsert appends rows: InsertColumns over the rows columnarized, after
// checking every row's arity.
func (db *DB) BulkInsert(name string, rows []types.Row) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if len(r) != len(t.names) {
			return fmt.Errorf("storage: %q: row arity %d, want %d", name, len(r), len(t.names))
		}
	}
	return db.InsertColumns(name, vec.BatchFromRows(len(t.names), rows))
}

// InsertColumns appends a batch's rows, metering Σ Row.Width bytes (the
// SQLBlkCpy component of the paper's Figure 5). Into an empty table the
// batch's columns are installed as they are, so every node a broadcast
// delivers one batch to shares its columns; onto a non-empty one a new
// vec.Table holding both is installed, leaving the one scans may still
// hold untouched. The batch must not change afterwards.
func (db *DB) InsertColumns(name string, add *vec.Batch) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	if len(add.Cols) != len(t.names) {
		return fmt.Errorf("storage: %q: %d columns, want %d", name, len(add.Cols), len(t.names))
	}
	bytes := add.Bytes()

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tables[strings.ToLower(name)] != t {
		// Dropped or renamed since the lookup.
		return fmt.Errorf("storage: unknown table %q", name)
	}
	if old := t.data; old.N > 0 {
		add = vec.Concat(len(t.names), []*vec.Batch{{N: old.N, Cols: old.Cols}, add}, nil)
	}
	t.data = &vec.Table{Names: t.names, N: add.N, Cols: add.Cols}
	db.BytesWritten += bytes
	return nil
}

// lookup resolves a table by name.
func (db *DB) lookup(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// ScanColumns returns the table's columns (shared and immutable; callers
// must not mutate).
func (db *DB) ScanColumns(name string) (*vec.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t.data, nil
}

// Names lists stored table names (unordered).
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	return out
}
