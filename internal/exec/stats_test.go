package exec

import (
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// TestRunStatsCountsOperators checks the work tally for a small
// Select-over-Get tree: two operators, scan rows counted once, filter
// output counted at its own (reduced) cardinality, and the batches the
// operators emitted.
func TestRunStatsCountsOperators(t *testing.T) {
	catCols := []catalog.Column{{Name: "a", Type: types.KindInt}}
	tbl := &catalog.Table{Name: "t", Columns: catCols, Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
	getCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt)}
	get := &algebra.Get{Table: tbl, Alias: "t", Cols: getCols}
	filter := &algebra.Select{Filter: &algebra.Binary{
		Op: sqlparser.OpGt, L: algebra.NewColRef(getCols[0]), R: cnst(types.NewInt(1)),
	}}
	tree := algebra.NewTree(filter, algebra.NewTree(get))
	stored := vec.FromRows([]string{"a"}, intRows(1, 2, 3))
	src := func(string) (*vec.Table, error) { return stored, nil }

	var st Stats
	out, err := RunVecStats(tree, src, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("filter output = %d rows, want 2", len(out.Rows))
	}
	if st.Ops != 2 {
		t.Errorf("Ops = %d, want 2 (Get + Select)", st.Ops)
	}
	if st.ScanRows != 3 {
		t.Errorf("ScanRows = %d, want 3", st.ScanRows)
	}
	if st.Rows != 5 { // 3 scanned + 2 surviving the filter
		t.Errorf("Rows = %d, want 5", st.Rows)
	}
	if st.Batches < 1 {
		t.Errorf("Batches = %d, want at least 1", st.Batches)
	}

	// The nil collector must behave exactly like RunVec.
	out2, err := RunVecStats(tree, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Rows) != len(out.Rows) {
		t.Errorf("nil Stats changed the result: %d vs %d rows", len(out2.Rows), len(out.Rows))
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Ops: 1, Rows: 10, ScanRows: 4}
	a.Merge(Stats{Ops: 2, Rows: 5, ScanRows: 1})
	if a.Ops != 3 || a.Rows != 15 || a.ScanRows != 5 {
		t.Errorf("Merge = %+v", a)
	}
}
