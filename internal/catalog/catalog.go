// Package catalog implements the PDW "shell database" (paper §2.2): a
// metadata-only image of the appliance. It records every table's schema,
// its distribution across compute nodes (hash-partitioned or replicated),
// primary keys, and the merged global statistics — everything compilation
// and optimization need, with no user data.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pdwqo/internal/stats"
	"pdwqo/internal/types"
)

// DistKind classifies how a table's rows are placed on compute nodes.
type DistKind uint8

const (
	// DistHash spreads rows across compute nodes by hashing the
	// distribution column.
	DistHash DistKind = iota
	// DistReplicated stores a full copy of the table on every compute node.
	DistReplicated
)

// String names the distribution kind the way PDW DDL does.
func (k DistKind) String() string {
	if k == DistReplicated {
		return "REPLICATE"
	}
	return "HASH"
}

// Distribution describes a table's placement.
type Distribution struct {
	Kind   DistKind
	Column string // distribution column for DistHash; empty otherwise
}

// String renders the placement, e.g. "HASH(o_orderkey)" or "REPLICATE".
func (d Distribution) String() string {
	if d.Kind == DistHash {
		return fmt.Sprintf("HASH(%s)", d.Column)
	}
	return "REPLICATE"
}

// Column is one column of a table.
type Column struct {
	Name string
	Type types.Kind
}

// Table is the shell-database image of one user table.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string // empty when no key is declared
	Dist       Distribution
	Stats      *stats.Table // merged global statistics; may be nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// RowCount returns the global row count from statistics (0 without stats).
func (t *Table) RowCount() float64 {
	if t.Stats == nil {
		return 0
	}
	return t.Stats.RowCount
}

// AvgRowWidth returns the statistical average row width in bytes, falling
// back to a type-based estimate when statistics are absent.
func (t *Table) AvgRowWidth() float64 {
	if t.Stats != nil && t.Stats.AvgRowWidth > 0 {
		return t.Stats.AvgRowWidth
	}
	w := 0.0
	for _, c := range t.Columns {
		w += float64(c.Type.Width())
	}
	return w
}

// Place assigns rows to the appliance's compute nodes per the table's
// distribution: a replicated table's rows land on every node, a hashed
// table's row on the node owning the hash of its distribution column.
func (t *Table) Place(rows []types.Row, nodes int) [][]types.Row {
	out := make([][]types.Row, nodes)
	if t.Dist.Kind == DistReplicated {
		for i := range out {
			out[i] = rows
		}
		return out
	}
	ci := t.ColumnIndex(t.Dist.Column)
	for _, r := range rows {
		n := int(types.Hash(r[ci]) % uint64(nodes))
		out[n] = append(out[n], r)
	}
	return out
}

// Topology describes the appliance (paper §2.1): homogeneous compute nodes
// behind a single control node.
type Topology struct {
	ComputeNodes int
}

// Shell is the shell database: the single-system image of the appliance.
//
// A Shell is safe for concurrent use: lookups take a read lock, DDL and
// statistics refreshes take the write lock, and a refresh replaces the
// table entry copy-on-write — a reader that already resolved a *Table
// keeps an immutable snapshot of the metadata it compiled against while
// later lookups observe the new statistics (and the bumped epoch).
type Shell struct {
	Topology Topology

	// epoch is the catalog/statistics version: bumped by every DDL change
	// (AddTable) and statistics refresh (SetStats). Plan caches key on it,
	// so a compiled plan can never outlive the metadata it was built from.
	// Atomic, so it lives above mu: readers never take the lock for it.
	epoch atomic.Uint64

	// base is the shell an overlay reads through to (nil otherwise); set
	// at construction, never changed.
	base *Shell

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewShell returns an empty shell database for an appliance with n compute
// nodes.
func NewShell(n int) *Shell {
	return &Shell{Topology: Topology{ComputeNodes: n}, tables: make(map[string]*Table)}
}

// Overlay returns an empty shell that reads through to s: a lookup finds
// the overlay's own tables first, then s's. Tables added to the overlay
// stay in it — an execution registers its temp tables there — and may not
// shadow a table of s.
func (s *Shell) Overlay() *Shell {
	return &Shell{Topology: s.Topology, base: s}
}

// AddTable registers a table, validating schema and distribution metadata.
func (s *Shell) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	key := strings.ToLower(t.Name)
	if s.base != nil && s.base.lookup(key) != nil {
		return fmt.Errorf("catalog: table %q would shadow a base table", t.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", t.Name, c.Name)
		}
		seen[lc] = true
	}
	if t.Dist.Kind == DistHash {
		if t.ColumnIndex(t.Dist.Column) < 0 {
			return fmt.Errorf("catalog: table %q: distribution column %q not found", t.Name, t.Dist.Column)
		}
	} else if t.Dist.Column != "" {
		return fmt.Errorf("catalog: table %q: replicated table cannot name a distribution column", t.Name)
	}
	for _, pk := range t.PrimaryKey {
		if t.ColumnIndex(pk) < 0 {
			return fmt.Errorf("catalog: table %q: primary-key column %q not found", t.Name, pk)
		}
	}
	if s.tables == nil {
		s.tables = make(map[string]*Table)
	}
	s.tables[key] = t
	s.epoch.Add(1)
	return nil
}

// Epoch returns the current catalog/statistics epoch. It increases
// monotonically; two equal readings bracket a window in which no DDL ran
// and no statistics changed.
func (s *Shell) Epoch() uint64 { return s.epoch.Load() }

// BumpEpoch advances the epoch without changing any metadata and returns
// the new value. DDL and stats paths bump implicitly; this is the explicit
// invalidation barrier ("treat everything compiled so far as stale").
func (s *Shell) BumpEpoch() uint64 { return s.epoch.Add(1) }

// Table resolves a table by name (case-insensitive), or nil.
func (s *Shell) Table(name string) *Table { return s.lookup(strings.ToLower(name)) }

func (s *Shell) lookup(key string) *Table {
	s.mu.RLock()
	t := s.tables[key]
	s.mu.RUnlock()
	if t == nil && s.base != nil {
		return s.base.lookup(key)
	}
	return t
}

// Tables returns every table sorted by name, for deterministic iteration.
// An overlay lists only its own tables.
func (s *Shell) Tables() []*Table {
	s.mu.RLock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetStats attaches merged global statistics to the named table. The
// entry is replaced copy-on-write: concurrent compilations that already
// resolved the table keep reading the statistics they started with, and
// the epoch bump invalidates any plan cached against them.
func (s *Shell) SetStats(table string, st *stats.Table) error {
	key := strings.ToLower(table)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[key]
	if !ok {
		return fmt.Errorf("catalog: unknown table %q", table)
	}
	nt := *t
	nt.Stats = st
	s.tables[key] = &nt
	s.epoch.Add(1)
	return nil
}

// BuildMissingStats computes global statistics for every table that has
// none, on the paper's §2.2 path: the table's rows are placed per its
// distribution, local statistics are built on each node, and the locals
// are merged into global ones. A replicated table's global statistics are
// one node's, since every node holds the same copy.
func (s *Shell) BuildMissingStats(data map[string][]types.Row) error {
	nodes := max(s.Topology.ComputeNodes, 1)
	for _, tbl := range s.Tables() {
		if tbl.Stats != nil {
			continue
		}
		rows := data[tbl.Name]
		for _, row := range rows {
			if len(row) < len(tbl.Columns) {
				return fmt.Errorf("catalog: table %q row has %d values, want %d",
					tbl.Name, len(row), len(tbl.Columns))
			}
		}
		locals := make([]*stats.Table, 0, nodes)
		for _, nodeRows := range tbl.Place(rows, nodes) {
			cols := map[string][]types.Value{}
			for ci, c := range tbl.Columns {
				vals := make([]types.Value, len(nodeRows))
				for ri, row := range nodeRows {
					vals[ri] = row[ci]
				}
				cols[c.Name] = vals
			}
			st, err := stats.BuildTable(cols)
			if err != nil {
				return err
			}
			locals = append(locals, st)
		}
		global := locals[0]
		if tbl.Dist.Kind == DistHash {
			global = stats.MergeTables(locals, tbl.Dist.Column)
		}
		if err := s.SetStats(tbl.Name, global); err != nil {
			return err
		}
	}
	return nil
}
