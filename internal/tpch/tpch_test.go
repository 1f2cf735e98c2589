package tpch

import (
	"math/rand"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	if a.Rows() != b.Rows() {
		t.Fatal("same seed must produce same row counts")
	}
	for _, tbl := range []string{"orders", "lineitem", "part"} {
		if len(a[tbl]) == 0 {
			t.Fatalf("table %s empty", tbl)
		}
		for i := range a[tbl] {
			if a[tbl][i].String() != b[tbl][i].String() {
				t.Fatalf("%s row %d differs", tbl, i)
			}
		}
	}
	c := Generate(0.001, 43)
	if c["orders"][0].String() == a["orders"][0].String() &&
		c["lineitem"][5].String() == a["lineitem"][5].String() {
		t.Error("different seeds should differ")
	}
}

func TestGenerateProportions(t *testing.T) {
	d := Generate(0.01, 1)
	if len(d["region"]) != 5 || len(d["nation"]) != 25 {
		t.Error("fixed tables")
	}
	nOrders, nCust := len(d["orders"]), len(d["customer"])
	if nOrders < 9*nCust || nOrders > 11*nCust {
		t.Errorf("orders:customer ratio = %d:%d, want ≈10:1", nOrders, nCust)
	}
	nLine := len(d["lineitem"])
	if nLine < 3*nOrders || nLine > 5*nOrders {
		t.Errorf("lineitem:orders ratio = %d:%d, want ≈4:1", nLine, nOrders)
	}
	if len(d["partsupp"]) != 4*len(d["part"]) {
		t.Error("partsupp = 4 × part")
	}
}

func TestGenerateSchemaConformance(t *testing.T) {
	d := Generate(0.001, 7)
	for _, tbl := range Tables() {
		rows := d[tbl.Name]
		if len(rows) == 0 {
			t.Fatalf("no rows for %s", tbl.Name)
		}
		for ri, row := range rows {
			if len(row) != len(tbl.Columns) {
				t.Fatalf("%s row %d: %d values, want %d", tbl.Name, ri, len(row), len(tbl.Columns))
			}
			for ci, v := range row {
				if v.IsNull() {
					continue
				}
				if v.Kind() != tbl.Columns[ci].Type {
					t.Fatalf("%s.%s: %v, want %v", tbl.Name, tbl.Columns[ci].Name, v.Kind(), tbl.Columns[ci].Type)
				}
			}
		}
	}
}

func TestForestPartsExist(t *testing.T) {
	d := Generate(0.005, 42)
	forest := 0
	for _, row := range d["part"] {
		name := row[1].Str()
		if len(name) >= 6 && name[:6] == "forest" {
			forest++
		}
	}
	if forest == 0 {
		t.Error("Q20 needs parts named 'forest%'")
	}
	if forest > len(d["part"])/10 {
		t.Errorf("'forest%%' should be selective: %d of %d", forest, len(d["part"]))
	}
}

// TestRandomQuery pins the generator: the same seed yields the same
// statements, the first of the root fuzz test's seed is the one recorded
// here, and every statement binds against the schema.
func TestRandomQuery(t *testing.T) {
	a, b := rand.New(rand.NewSource(20260705)), rand.New(rand.NewSource(20260705))
	const first = "SELECT l_orderkey, o_orderkey, l_quantity FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipmode = 'SHIP' AND o_orderdate >= '1996-01-01'"
	shell, _, err := BuildShell(0.001, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for i := 0; i < 200; i++ {
		sql := RandomQuery(a)
		if i == 0 && sql != first {
			t.Errorf("first statement of seed 20260705:\n got %s\nwant %s", sql, first)
		}
		if again := RandomQuery(b); again != sql {
			t.Fatalf("statement %d differs under one seed:\n%s\n%s", i, sql, again)
		}
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", sql, err)
		}
		if _, err := algebra.NewBinder(shell).Bind(sel); err != nil {
			t.Fatalf("%s: bind: %v", sql, err)
		}
		for _, shape := range []string{"TOP ", "DISTINCT ", "GROUP BY ", "HAVING ", "LIKE ", " IN ("} {
			if strings.Contains(sql, shape) {
				shapes[shape] = true
			}
		}
	}
	if len(shapes) != 6 {
		t.Errorf("200 statements reached only the shapes %v", shapes)
	}
}

func TestBuildShell(t *testing.T) {
	shell, data, err := BuildShell(0.002, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range Tables() {
		st := shell.Table(tbl.Name)
		if st == nil || st.Stats == nil {
			t.Fatalf("missing stats for %s", tbl.Name)
		}
		if int(st.Stats.RowCount) != len(data[tbl.Name]) {
			t.Errorf("%s global rowcount %v, want %d", tbl.Name, st.Stats.RowCount, len(data[tbl.Name]))
		}
	}
	// The hash column's merged NDV must be exact.
	ost := shell.Table("orders").Stats
	if int(ost.Column("o_orderkey").NDV) != len(data["orders"]) {
		t.Errorf("o_orderkey NDV = %v, want %d", ost.Column("o_orderkey").NDV, len(data["orders"]))
	}
}

func TestAllQueriesParseAndNormalize(t *testing.T) {
	shell, _, err := BuildShell(0.001, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			t.Errorf("%s: parse: %v", q.Name, err)
			continue
		}
		b := algebra.NewBinder(shell)
		tree, err := b.Bind(sel)
		if err != nil {
			t.Errorf("%s: bind: %v", q.Name, err)
			continue
		}
		norm, err := normalize.New(b).Normalize(tree)
		if err != nil {
			t.Errorf("%s: normalize: %v", q.Name, err)
			continue
		}
		algebra.VisitTree(norm, func(n *algebra.Tree) {
			for _, s := range algebra.OperatorScalars(n.Op) {
				if algebra.HasSubquery(s) {
					t.Errorf("%s: subquery survived normalization", q.Name)
				}
			}
		})
	}
}

func TestGetQuery(t *testing.T) {
	if _, ok := Get("q20"); !ok {
		t.Error("q20 must exist")
	}
	if _, ok := Get("q99"); ok {
		t.Error("q99 must not exist")
	}
	if len(Queries()) < 10 {
		t.Errorf("suite too small: %d", len(Queries()))
	}
}

func TestDatesInRange(t *testing.T) {
	d := Generate(0.001, 42)
	lo := types.MustParseDate("1992-01-01")
	hi := types.MustParseDate("1999-01-01")
	for _, row := range d["orders"] {
		od := row[4]
		if types.Compare(od, lo) < 0 || types.Compare(od, hi) > 0 {
			t.Fatalf("order date out of range: %v", od)
		}
	}
}
