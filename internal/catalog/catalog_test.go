package catalog

import (
	"strings"
	"testing"

	"pdwqo/internal/stats"
	"pdwqo/internal/types"
)

func ordersTable() *Table {
	return &Table{
		Name: "Orders",
		Columns: []Column{
			{Name: "o_orderkey", Type: types.KindInt},
			{Name: "o_custkey", Type: types.KindInt},
			{Name: "o_totalprice", Type: types.KindFloat},
			{Name: "o_orderdate", Type: types.KindDate},
		},
		PrimaryKey: []string{"o_orderkey"},
		Dist:       Distribution{Kind: DistHash, Column: "o_orderkey"},
	}
}

func TestAddAndLookup(t *testing.T) {
	s := NewShell(8)
	if s.Topology.ComputeNodes != 8 {
		t.Fatal("topology")
	}
	if err := s.AddTable(ordersTable()); err != nil {
		t.Fatal(err)
	}
	if s.Table("ORDERS") == nil || s.Table("orders") == nil {
		t.Error("lookup must be case-insensitive")
	}
	if s.Table("nope") != nil {
		t.Error("unknown table must be nil")
	}
	if err := s.AddTable(ordersTable()); err == nil {
		t.Error("duplicate table must error")
	}
}

func TestValidation(t *testing.T) {
	s := NewShell(2)
	if err := s.AddTable(&Table{Name: ""}); err == nil {
		t.Error("empty name")
	}
	if err := s.AddTable(&Table{Name: "t"}); err == nil {
		t.Error("no columns")
	}
	if err := s.AddTable(&Table{Name: "t", Columns: []Column{{Name: "a"}, {Name: "A"}}}); err == nil {
		t.Error("duplicate columns")
	}
	if err := s.AddTable(&Table{
		Name: "t", Columns: []Column{{Name: "a"}},
		Dist: Distribution{Kind: DistHash, Column: "b"},
	}); err == nil {
		t.Error("bad distribution column")
	}
	if err := s.AddTable(&Table{
		Name: "t", Columns: []Column{{Name: "a"}},
		Dist: Distribution{Kind: DistReplicated, Column: "a"},
	}); err == nil {
		t.Error("replicated with distribution column")
	}
	if err := s.AddTable(&Table{
		Name: "t", Columns: []Column{{Name: "a"}}, PrimaryKey: []string{"z"},
		Dist: Distribution{Kind: DistReplicated},
	}); err == nil {
		t.Error("bad primary key column")
	}
}

func TestColumnHelpers(t *testing.T) {
	tbl := ordersTable()
	if tbl.ColumnIndex("O_CUSTKEY") != 1 {
		t.Error("case-insensitive column index")
	}
	if tbl.ColumnIndex("missing") != -1 {
		t.Error("missing column index")
	}
	if c := tbl.Column("o_orderdate"); c == nil || c.Type != types.KindDate {
		t.Error("column lookup")
	}
}

func TestStatsAttachment(t *testing.T) {
	s := NewShell(4)
	tbl := ordersTable()
	if err := s.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 0 {
		t.Error("no stats yet")
	}
	st, err := stats.BuildTable(map[string][]types.Value{
		"o_orderkey": {types.NewInt(1), types.NewInt(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetStats("orders", st); err != nil {
		t.Fatal(err)
	}
	if s.Table("orders").RowCount() != 2 {
		t.Error("rowcount from stats")
	}
	// The refresh is copy-on-write: a *Table resolved before SetStats is a
	// stable snapshot, so compilations in flight during a statistics
	// refresh keep reading the metadata they started with.
	if tbl.RowCount() != 0 {
		t.Error("previously resolved table must keep its stats snapshot")
	}
	if err := s.SetStats("missing", st); err == nil {
		t.Error("unknown table must error")
	}
}

func TestAvgRowWidthFallback(t *testing.T) {
	tbl := ordersTable()
	// No stats: 8 + 8 + 8 + 4 = 28 bytes.
	if w := tbl.AvgRowWidth(); w != 28 {
		t.Errorf("fallback width = %v", w)
	}
}

func TestTablesSorted(t *testing.T) {
	s := NewShell(2)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		tbl := &Table{
			Name:    n,
			Columns: []Column{{Name: "a", Type: types.KindInt}},
			Dist:    Distribution{Kind: DistReplicated},
		}
		if err := s.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tables()
	if len(got) != 3 || got[0].Name != "alpha" || got[2].Name != "zeta" {
		t.Errorf("tables not sorted: %v", got)
	}
}

func TestDistributionString(t *testing.T) {
	if (Distribution{Kind: DistHash, Column: "k"}).String() != "HASH(k)" {
		t.Error("hash string")
	}
	if (Distribution{Kind: DistReplicated}).String() != "REPLICATE" {
		t.Error("replicate string")
	}
}

func TestPlaceRows(t *testing.T) {
	orders := ordersTable()
	rows := make([]types.Row, 3000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i + 1)), types.NewInt(int64(i % 7)), types.NewFloat(1), types.NewDate(9000)}
	}
	placed := orders.Place(rows, 4)
	total := 0
	for i, p := range placed {
		total += len(p)
		if len(p) < len(rows)/8 {
			t.Errorf("node %d underloaded: %d of %d", i, len(p), len(rows))
		}
		for _, r := range p {
			if n := int(types.Hash(r[0]) % 4); n != i {
				t.Fatalf("key %v placed on node %d, its hash owns node %d", r[0], i, n)
			}
		}
	}
	if total != len(rows) {
		t.Errorf("hash placement holds %d of %d rows; it must partition exactly", total, len(rows))
	}
	nation := &Table{Name: "nation", Columns: []Column{{Name: "n_nationkey", Type: types.KindInt}},
		Dist: Distribution{Kind: DistReplicated}}
	for i, p := range nation.Place(rows[:25], 4) {
		if len(p) != 25 {
			t.Errorf("replicated table holds %d rows on node %d, want all 25", len(p), i)
		}
	}
}

// TestBuildMissingStats: statistics built on the §2.2 path count every
// row once (a replicated table's copies are not summed), the hash
// column's merged NDV is exact, a table that has statistics keeps them,
// and a short row is refused before it is placed.
func TestBuildMissingStats(t *testing.T) {
	s := NewShell(4)
	if err := s.AddTable(ordersTable()); err != nil {
		t.Fatal(err)
	}
	region := &Table{Name: "region", Columns: []Column{{Name: "r_regionkey", Type: types.KindInt}},
		Dist: Distribution{Kind: DistReplicated}}
	if err := s.AddTable(region); err != nil {
		t.Fatal(err)
	}
	kept := stats.NewTable()
	kept.RowCount = 99
	if err := s.SetStats("region", kept); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 500)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewFloat(float64(i)), types.NewDate(9000)}
	}
	data := map[string][]types.Row{"Orders": rows, "region": {{types.NewInt(1)}}}
	if err := s.BuildMissingStats(data); err != nil {
		t.Fatal(err)
	}
	st := s.Table("orders").Stats
	if st == nil || st.RowCount != 500 || st.Column("o_orderkey").NDV != 500 {
		t.Errorf("orders statistics: %+v", st)
	}
	if s.Table("region").Stats != kept {
		t.Error("a table's existing statistics were rebuilt")
	}

	short := NewShell(2)
	if err := short.AddTable(ordersTable()); err != nil {
		t.Fatal(err)
	}
	err := short.BuildMissingStats(map[string][]types.Row{"Orders": {{types.NewInt(1)}}})
	if err == nil || !strings.Contains(err.Error(), "row has 1 values, want 4") {
		t.Errorf("short row: err = %v", err)
	}
}

// TestOverlay: an overlay reads through to its base, keeps its own tables
// to itself, and refuses a table that would shadow a base table.
func TestOverlay(t *testing.T) {
	base := NewShell(4)
	if err := base.AddTable(ordersTable()); err != nil {
		t.Fatal(err)
	}
	epoch := base.Epoch()
	o := base.Overlay()
	if o.Table("orders") != base.Table("orders") {
		t.Error("overlay must resolve a base table to the base's entry")
	}
	temp := &Table{Name: "TEMP_ID_1", Columns: []Column{{Name: "c1", Type: types.KindInt}}, Dist: Distribution{Kind: DistReplicated}}
	if err := o.AddTable(temp); err != nil {
		t.Fatal(err)
	}
	if o.Table("temp_id_1") != temp || base.Table("TEMP_ID_1") != nil {
		t.Error("a temp table belongs to the overlay alone")
	}
	if base.Epoch() != epoch {
		t.Error("adding to an overlay must not bump the base epoch")
	}
	if err := o.AddTable(ordersTable()); err == nil || !strings.Contains(err.Error(), "shadow") {
		t.Errorf("shadowing a base table: err %v", err)
	}
}
