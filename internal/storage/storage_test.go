package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pdwqo/internal/catalog"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

func cols() []catalog.Column {
	return []catalog.Column{
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindString},
	}
}

// scan reads a table back as rows: the stored columns, boxed.
func scan(t *testing.T, db *DB, name string) []types.Row {
	t.Helper()
	tbl, err := db.ScanColumns(name)
	if err != nil {
		t.Fatalf("scan %s: %v", name, err)
	}
	return tbl.Rows()
}

func TestCreateInsertScan(t *testing.T) {
	db := NewDB()
	if err := db.Create("t", cols()); err != nil {
		t.Fatal(err)
	}
	if err := db.Create("t", cols()); err == nil {
		t.Error("duplicate create must fail")
	}
	if got := scan(t, db, "t"); len(got) != 0 {
		t.Errorf("fresh table holds %d rows", len(got))
	}
	rows := []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(2), types.NewString("yy")},
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.ScanColumns("T") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl.Names, []string{"a", "b"}) {
		t.Errorf("column names: %v", tbl.Names)
	}
	if got := tbl.Rows(); !reflect.DeepEqual(got, rows) {
		t.Fatalf("scan: %v, want %v", got, rows)
	}
	if db.BytesWritten != int64(rows[0].Width()+rows[1].Width()) {
		t.Errorf("bytes metered: %d", db.BytesWritten)
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDB()
	if err := db.BulkInsert("missing", nil); err == nil {
		t.Error("unknown table")
	}
	if err := db.Create("t", cols()); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert("t", []types.Row{{types.NewInt(1)}}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if got := scan(t, db, "t"); len(got) != 0 {
		t.Errorf("a rejected insert left %d rows behind", len(got))
	}
}

func TestDrop(t *testing.T) {
	db := NewDB()
	if err := db.Create("t", cols()); err != nil {
		t.Fatal(err)
	}
	db.Drop("T")
	if _, err := db.ScanColumns("t"); err == nil {
		t.Error("dropped table must be gone")
	}
	db.Drop("never-existed") // no-op
}

func TestNames(t *testing.T) {
	db := NewDB()
	for _, n := range []string{"x", "y"} {
		if err := db.Create(n, cols()); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.Names()) != 2 {
		t.Error("names")
	}
}

// TestConcurrentReadsDuringWrites races inserts against scans. Every
// snapshot a scan hands out is a published table and must never be seen
// changing: its row count and contents are re-read after all writers have
// finished. Under -race this also certifies that scans (read lock) and
// inserts (columnarize outside the lock, install under it) share nothing
// mutable.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	db := NewDB()
	if err := db.Create("t", cols()); err != nil {
		t.Fatal(err)
	}
	type snap struct {
		tbl  *vec.Table
		rows []types.Row // as boxed when the scan returned
	}
	snaps := make([]snap, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = db.BulkInsert("t", []types.Row{{types.NewInt(int64(i)), types.NewString(fmt.Sprint("v", i))}})
		}()
		go func() {
			defer wg.Done()
			tbl, err := db.ScanColumns("t")
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = snap{tbl: tbl, rows: tbl.Rows()}
		}()
	}
	wg.Wait()
	for i, s := range snaps {
		if s.tbl == nil {
			continue
		}
		if again := s.tbl.Rows(); s.tbl.N != len(s.rows) || !reflect.DeepEqual(again, s.rows) {
			t.Errorf("snapshot %d changed after publication: now %d rows %v, first read %v",
				i, s.tbl.N, again, s.rows)
		}
	}
	if rows := scan(t, db, "t"); len(rows) != 8 {
		t.Errorf("rows after concurrent writes: %d", len(rows))
	}
}

// TestInsertAfterInsert: appending in two inserts stores what one combined
// insert stores, across a column that changes representation on the way
// (all-NULL, then typed, then mixed kinds).
func TestInsertAfterInsert(t *testing.T) {
	parts := [][]types.Row{
		{{types.Null, types.NewString("n")}},
		{{types.NewInt(7), types.Null}, {types.NewInt(8), types.NewString("x")}},
		{{types.NewFloat(1.5), types.NewString("f")}},
	}
	split, whole := NewDB(), NewDB()
	for _, db := range []*DB{split, whole} {
		if err := db.Create("t", cols()); err != nil {
			t.Fatal(err)
		}
	}
	var all []types.Row
	for _, p := range parts {
		if err := split.BulkInsert("t", p); err != nil {
			t.Fatal(err)
		}
		all = append(all, p...)
	}
	if err := whole.BulkInsert("t", all); err != nil {
		t.Fatal(err)
	}
	got, want := scan(t, split, "t"), scan(t, whole, "t")
	if !reflect.DeepEqual(got, all) || !reflect.DeepEqual(want, all) {
		t.Fatalf("split inserts stored %v, one insert stored %v, want %v", got, want, all)
	}
	if split.BytesWritten != whole.BytesWritten {
		t.Errorf("bytes metered: split %d, whole %d", split.BytesWritten, whole.BytesWritten)
	}
}

// TestInsertColumns: a columnar insert stores and meters what the row
// insert of the same rows does; into an empty table the batch's columns
// are installed as they are, so two nodes handed one batch share them;
// a batch of the wrong width is refused.
func TestInsertColumns(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.Null, types.NewString("yyy")},
		{types.NewInt(3), types.Null},
	}
	b := vec.BatchFromRows(2, rows)
	byRows, a1, a2 := NewDB(), NewDB(), NewDB()
	for _, db := range []*DB{byRows, a1, a2} {
		if err := db.Create("t", cols()); err != nil {
			t.Fatal(err)
		}
	}
	if err := byRows.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{a1, a2} {
		if err := db.InsertColumns("t", b); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := scan(t, a1, "t"), scan(t, byRows, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar insert stored %v, row insert %v", got, want)
	}
	if a1.BytesWritten != byRows.BytesWritten || a1.BytesWritten != b.Bytes() {
		t.Errorf("bytes metered: columnar %d, rows %d, batch %d", a1.BytesWritten, byRows.BytesWritten, b.Bytes())
	}
	t1, _ := a1.ScanColumns("t")
	t2, _ := a2.ScanColumns("t")
	if t1.Cols[0] != b.Cols[0] || t2.Cols[1] != b.Cols[1] {
		t.Error("an insert into an empty table must install the batch's columns, not copies")
	}
	if err := a1.InsertColumns("t", b); err != nil {
		t.Fatal(err)
	}
	if got := scan(t, a2, "t"); !reflect.DeepEqual(got, rows) {
		t.Errorf("appending on one node changed another's shared columns: %v", got)
	}
	if err := a1.InsertColumns("t", vec.BatchFromRows(1, []types.Row{{types.NewInt(1)}})); err == nil {
		t.Error("a batch of the wrong width must be refused")
	}
}

func TestRename(t *testing.T) {
	db := NewDB()
	if err := db.Create("t__stage", cols()); err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{{types.NewInt(1), types.NewString("x")}}
	if err := db.BulkInsert("t__stage", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Rename("missing", "t"); err == nil {
		t.Error("renaming an unknown table must fail")
	}
	if err := db.Create("occupied", cols()); err != nil {
		t.Fatal(err)
	}
	if err := db.Rename("t__stage", "occupied"); err == nil {
		t.Error("renaming over an existing table must fail")
	}
	staged, err := db.ScanColumns("t__stage")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Rename("T__STAGE", "t"); err != nil { // case-insensitive source
		t.Fatal(err)
	}
	published, err := db.ScanColumns("t")
	if err != nil {
		t.Fatal(err)
	}
	if published != staged {
		t.Error("rename must carry the staged columns, not rebuild them")
	}
	if got := published.Rows(); !reflect.DeepEqual(got, rows) {
		t.Fatalf("renamed table rows: %v", got)
	}
	if _, err := db.ScanColumns("t__stage"); err == nil {
		t.Error("old name must be gone after rename")
	}
	names := db.Names()
	if len(names) != 2 || (names[0] != "t" && names[1] != "t") {
		t.Errorf("table record must carry the new name: %v", names)
	}
}
